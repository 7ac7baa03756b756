package core

import (
	"fmt"
	"io"
	"sort"

	"impacc/internal/device"
	"impacc/internal/msg"
	"impacc/internal/prof"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
)

// TaskReport is one task's accounting after a run.
type TaskReport struct {
	Rank       int
	Node       int
	Device     int
	DeviceType topo.DeviceClass
	End        sim.Time // when the task's program returned
	Comm       sim.Dur  // host time blocked in MPI operations
	AccWait    sim.Dur  // host time blocked in acc wait / sync kernels
	HostBusy   sim.Dur  // host compute time
	Dev        device.Stats
	// LeakedMappings counts device data mappings still present when the
	// task returned — enter-data without matching exit-data.
	LeakedMappings int
}

// HubReport is one node hub's accounting.
type HubReport struct {
	Node        int
	Stats       msg.Stats
	HandlerBusy sim.Dur
	// Link utilization: accumulated busy time of the node's shared
	// resources over the run.
	NICOutBusy, NICInBusy, MemBusBusy sim.Dur
	PCIeBusy                          []sim.Dur
}

// RunInfo is the report's provenance block: enough of the run's identity
// that an exported artifact describes itself. Every field is a pure
// function of the Config content (worker count, tracing, and other
// observers are deliberately absent — they never change simulated bytes,
// so they must not change report bytes either).
type RunInfo struct {
	// Scheme is the canonical Config encoding tag (ConfigHashScheme) and
	// Hash the content address under it — the same key impacc-serve caches
	// by.
	Scheme string
	Hash   string
	// System is the topology preset the run simulated.
	System string
	// Shards is the sharded engine's shard count — a property of the
	// configuration (one shard per node when the fabric offers lookahead),
	// not of the -par-sim worker count.
	Shards int
	// Chaos is the canonical fault-injection spec; empty on healthy runs.
	Chaos string
	// Limits are the run's resource caps (zero fields unlimited).
	Limits Limits
}

// Report summarizes a run.
type Report struct {
	Run     RunInfo
	Mode    Mode
	System  string
	NTasks  int
	Elapsed sim.Dur // max task end time
	Tasks   []TaskReport
	Hubs    []HubReport
	// Metrics is the full telemetry registry snapshot taken at run end,
	// after link utilization gauges are recorded. See internal/telemetry.
	Metrics *telemetry.Snapshot
	// Prof is the causal-trace profile (critical path, per-rank breakdowns,
	// call-site table); nil unless the run was traced. See internal/prof.
	Prof *prof.Profile
}

func (rt *Runtime) buildReport() *Report {
	r := &Report{
		Run: RunInfo{
			Scheme: ConfigHashScheme,
			Hash:   rt.Cfg.Hash(),
			System: rt.Cfg.System.Name,
			Shards: rt.group.Shards(),
			Limits: rt.Cfg.Limits,
		},
		Mode:   rt.Cfg.Mode,
		System: rt.Cfg.System.Name,
		NTasks: len(rt.tasks),
	}
	if rt.Cfg.Chaos != nil {
		r.Run.Chaos = rt.Cfg.Chaos.String()
	}
	for _, t := range rt.tasks {
		tr := TaskReport{
			Rank:           t.rank,
			Node:           t.pl.Node,
			Device:         t.pl.Device,
			DeviceType:     t.DeviceType(),
			End:            t.endAt,
			Comm:           t.commTime,
			AccWait:        t.env.WaitTime,
			HostBusy:       t.hostTime,
			Dev:            t.ep.Ctx.Stats,
			LeakedMappings: t.env.PT.Len(),
		}
		if sim.Dur(t.endAt) > r.Elapsed {
			r.Elapsed = sim.Dur(t.endAt)
		}
		r.Tasks = append(r.Tasks, tr)
	}
	var nodes []int
	for n := range rt.nodes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		ns := rt.nodes[n]
		nr := rt.Fab.Node(n)
		hr := HubReport{
			Node:        n,
			Stats:       ns.hub.Stats(),
			HandlerBusy: ns.hub.HandlerBusy(),
			NICOutBusy:  nr.NICOut.BusyTime(),
			NICInBusy:   nr.NICIn.BusyTime(),
			MemBusBusy:  nr.MemBus.BusyTime(),
		}
		for _, p := range nr.PCIe {
			if p != nil {
				hr.PCIeBusy = append(hr.PCIeBusy, p.BusyTime())
			} else {
				hr.PCIeBusy = append(hr.PCIeBusy, 0)
			}
		}
		r.Hubs = append(r.Hubs, hr)
	}
	reg := rt.Metrics()
	rt.Fab.RecordUtilization(reg, r.Elapsed)
	r.Metrics = reg.Snapshot(int64(rt.group.MaxNow()))
	if tr := rt.Cfg.Trace; tr != nil && !tr.Streaming() {
		// A streaming tracer has already shipped (and dropped) its records,
		// so the in-memory views backing the profile are gone by design;
		// analyze a streamed file post-hoc with prof.ReadStream instead.
		tr.AttachMetrics(r.Metrics)
		r.Prof = prof.Analyze(tr.Data(sim.Time(r.Elapsed)), prof.DefaultTopSites)
	}
	return r
}

// TotalDev aggregates device stats across tasks.
func (r *Report) TotalDev() device.Stats {
	var s device.Stats
	for i := range r.Tasks {
		s.Add(&r.Tasks[i].Dev)
	}
	return s
}

// TotalHub aggregates hub counters across nodes.
func (r *Report) TotalHub() msg.Stats {
	var s msg.Stats
	for _, h := range r.Hubs {
		s.IntraMsgs += h.Stats.IntraMsgs
		s.NetIn += h.Stats.NetIn
		s.NetOut += h.Stats.NetOut
		s.FusedCopies += h.Stats.FusedCopies
		s.LegacyCopies += h.Stats.LegacyCopies
		s.Aliases += h.Stats.Aliases
		s.RDMADirect += h.Stats.RDMADirect
		s.Staged += h.Stats.Staged
	}
	return s
}

// MaxComm returns the largest per-task communication time.
func (r *Report) MaxComm() sim.Dur {
	var m sim.Dur
	for i := range r.Tasks {
		if r.Tasks[i].Comm > m {
			m = r.Tasks[i].Comm
		}
	}
	return m
}

// MeanKernel returns the average per-task kernel time.
func (r *Report) MeanKernel() sim.Dur {
	if len(r.Tasks) == 0 {
		return 0
	}
	var sum sim.Dur
	for i := range r.Tasks {
		sum += r.Tasks[i].Dev.KernelTime
	}
	return sum / sim.Dur(len(r.Tasks))
}

// Print writes a human-readable summary.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "%s on %s: %d tasks, elapsed %v\n", r.Mode, r.System, r.NTasks, r.Elapsed)
	dev := r.TotalDev()
	hub := r.TotalHub()
	fmt.Fprintf(w, "  kernels: %d (%v)  copies: HtoD %d  DtoH %d  DtoD %d  HtoH %d\n",
		dev.KernelCount, dev.KernelTime, dev.HtoDCount, dev.DtoHCount, dev.DtoDCount, dev.HtoHCount)
	fmt.Fprintf(w, "  msgs: intra %d  net-out %d  fused %d  aliased %d  rdma %d  staged %d\n",
		hub.IntraMsgs, hub.NetOut, hub.FusedCopies, hub.Aliases, hub.RDMADirect, hub.Staged)
	if r.Elapsed > 0 {
		var nic, pcie sim.Dur
		for _, h := range r.Hubs {
			nic += h.NICOutBusy
			for _, p := range h.PCIeBusy {
				pcie += p
			}
		}
		fmt.Fprintf(w, "  utilization: NIC %.1f%%  PCIe %.1f%% (aggregate across nodes/devices)\n",
			100*nic.Seconds()/(r.Elapsed.Seconds()*float64(len(r.Hubs))),
			100*pcie.Seconds()/(r.Elapsed.Seconds()*float64(max(1, len(r.Tasks)))))
	}
	if r.Prof != nil {
		fmt.Fprintf(w, "  critical path:")
		for _, k := range r.Prof.CritPath.SortedKinds() {
			fmt.Fprintf(w, "  %s %v", k, sim.Dur(r.Prof.CritPath.ByKindNs[k]))
		}
		fmt.Fprintf(w, "  (%d hops)\n", r.Prof.CritPath.Hops)
	}
}
