package core

import (
	"encoding/json"
	"io"
	"sort"

	"impacc/internal/sim"
)

// Progress snapshots are the live-run counterpart of the post-run report:
// the runtime divides virtual time into Every-sized beats and, at each
// boundary B, emits one Heartbeat describing the simulation exactly at B.
// Beats ride the shard group's barrier machinery (sim.ShardGroup.BeatEvery):
// a boundary fires only after every event at or before it has been
// dispatched on every shard, so the snapshot's content is a pure function of
// the configuration — independent of worker count, shard count, and window
// sizing. Like Trace, Progress changes how a run is observed,
// never what it simulates, and is excluded from the canonical content hash.

// Progress asks the runtime for deterministic virtual-time heartbeats.
type Progress struct {
	// Every is the heartbeat interval in virtual time; must be positive.
	Every sim.Dur
	// Emit receives each heartbeat in beat order, called from the group's
	// coordinating goroutine with every shard quiescent. It must not call
	// back into the runtime.
	Emit func(Heartbeat)
}

// ParkCount aggregates the parked-process table by wait reason.
type ParkCount struct {
	BlockedOn string `json:"blocked_on"`
	N         int    `json:"n"`
}

// PhaseCount aggregates the per-rank phase list by phase (lean mode).
type PhaseCount struct {
	Phase string `json:"phase"`
	N     int    `json:"n"`
}

// Heartbeat is one progress snapshot, taken at virtual instant AtNs with
// every event at or before AtNs dispatched and nothing later started.
type Heartbeat struct {
	Seq    int    `json:"seq"`
	AtNs   int64  `json:"at_ns"`
	Events uint64 `json:"events"` // events dispatched across all shards
	// NextNs is the earliest pending event anywhere — the anchor of the next
	// shard window (fence = NextNs + lookahead); -1 when drained.
	NextNs int64 `json:"next_ns"`
	Shards int   `json:"shards"` // shard engines (a config property, not workers)
	Live   int   `json:"live"`   // spawned, unfinished processes
	// Parked histograms every blocked process by what it waits on.
	Parked []ParkCount `json:"parked,omitempty"`
	// Phases is each rank's last observed activity ("mpi:recv", "compute",
	// "accwait", ...; "" before the task's first operation). Omitted in
	// lean mode, which reports PhaseCounts instead.
	Phases []string `json:"phases,omitempty"`
	// PhaseCounts histograms the ranks by phase, sorted by phase name —
	// the lean-mode replacement for the O(ranks) Phases list.
	PhaseCounts []PhaseCount `json:"phase_counts,omitempty"`
	// Message-path counters accumulated across node hubs.
	IntraMsgs uint64 `json:"intra_msgs"`
	NetOut    uint64 `json:"net_out"`
	NetIn     uint64 `json:"net_in"`
}

// NewHeartbeatWriter returns an Emit function writing heartbeats as JSONL
// to w — the -progress file format. Output is unbuffered by design: each
// line is visible as soon as its beat fires, which is the point of a live
// progress feed; wrap w in a bufio.Writer to trade latency for throughput.
func NewHeartbeatWriter(w io.Writer) func(Heartbeat) {
	enc := json.NewEncoder(w)
	return func(hb Heartbeat) { _ = enc.Encode(&hb) }
}

// emitHeartbeat assembles and emits the snapshot for beat boundary at. It
// runs on the group's coordinating goroutine between windows, after the
// barrier, so reading task and hub state is race-free (the barrier's
// WaitGroup orders every shard write before this read).
func (rt *Runtime) emitHeartbeat(seq int, at sim.Time) {
	hb := Heartbeat{
		Seq:    seq,
		AtNs:   int64(at),
		Events: rt.group.Events(),
		NextNs: -1,
		Shards: rt.group.Shards(),
		Live:   rt.group.LiveProcs(),
	}
	if next, ok := rt.group.NextAt(); ok {
		hb.NextNs = int64(next)
	}
	counts := map[string]int{}
	rt.group.EachBlocked(func(name, blockedOn string) {
		counts[blockedOn]++
	})
	if len(counts) > 0 {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hb.Parked = append(hb.Parked, ParkCount{BlockedOn: k, N: counts[k]})
		}
	}
	if rt.lean {
		// O(distinct phases) instead of O(ranks): big-run heartbeats stay a
		// few hundred bytes at 100k ranks.
		phases := map[string]int{}
		for _, t := range rt.tasks {
			phases[t.phase]++
		}
		keys := make([]string, 0, len(phases))
		for k := range phases {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hb.PhaseCounts = append(hb.PhaseCounts, PhaseCount{Phase: k, N: phases[k]})
		}
	} else {
		hb.Phases = make([]string, len(rt.tasks))
		for i, t := range rt.tasks {
			hb.Phases[i] = t.phase
		}
	}
	nodes := make([]int, 0, len(rt.nodes))
	for n := range rt.nodes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		st := rt.nodes[n].hub.Stats()
		hb.IntraMsgs += st.IntraMsgs
		hb.NetOut += st.NetOut
		hb.NetIn += st.NetIn
	}
	rt.Cfg.Progress.Emit(hb)
}
