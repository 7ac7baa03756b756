package core

import (
	"fmt"
	"math"

	"impacc/internal/device"
	"impacc/internal/fault"
	"impacc/internal/msg"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// Program is the SPMD application body, executed once per task.
type Program func(t *Task)

// nodeState bundles one node's runtime objects.
type nodeState struct {
	idx   int
	hub   *msg.Hub
	heap  *xmem.HeapTable
	devrt *device.Runtime
	// space is the unified node virtual address space (IMPACC); legacy
	// tasks carry private spaces instead.
	space *xmem.Space
}

// Runtime executes one configured run.
type Runtime struct {
	Cfg   Config
	Fab   *topo.Fabric
	feats Features

	// shards are the distinct shard engines in shard order: one per node
	// when the fabric offers a positive conservative lookahead, a single
	// shared engine otherwise. group coordinates their windowed execution;
	// Config.Parallel only sets the group's worker count and never changes
	// a simulated byte (see internal/sim.ShardGroup).
	shards []*sim.Engine
	group  *sim.ShardGroup

	// nodes is indexed by node: nil for a node that hosts no rank.
	nodes      []*nodeState
	tasks      []*Task
	placements []Placement
	// worldRanks (the identity 0..P-1) and worldLayout back every task's
	// MPI_COMM_WORLD view. Built before any shard runs and only read
	// afterwards, they are shared across shards like placements.
	worldRanks  []int
	worldLayout *nodeLayout
	// faults is the run's fault-injection plan (nil on healthy runs). It is
	// instantiated fresh per run from Cfg.Chaos so concurrent runs of the
	// same spec draw identical per-node streams (serial vs -j N parity).
	faults *fault.Plan
	// metrics is the run's merged registry — shard registries merged in
	// shard order — built once by Metrics after the group run finishes.
	metrics *telemetry.Registry
	// heapCap enforces Limits.MaxAllocBytes (nil when unlimited).
	heapCap *heapCap
	// lean reports whether Config.Lean is active for this run: set only
	// when the mapping exceeds leanRankThreshold ranks, so small systems
	// run byte-identically with the flag on or off.
	lean bool
}

// leanRankThreshold is the rank count above which Config.Lean changes
// behaviour: at or below it every lean reduction is a no-op (per-rank
// detail is cheap), so lean runs of small systems stay byte-identical to
// non-lean runs.
const leanRankThreshold = 256

// defaultStreamFlushBeat bounds the streaming tracer's memory on runs with
// no natural window barriers (single shard): flush at least once per
// millisecond of virtual time.
const defaultStreamFlushBeat = sim.Dur(1_000_000)

// Stall returns the flight recorder's dump after an Execute that ended
// abnormally with Config.FlightRing armed; nil after a clean run or when
// disarmed. A task failure that Execute returns, queued or synchronous, is
// filed under reason "task-error". See sim.StallReport.
func (rt *Runtime) Stall() *sim.StallReport { return rt.group.Stall() }

// RunError wraps a task failure.
type RunError struct {
	Rank int
	Err  error
}

func (e *RunError) Error() string { return fmt.Sprintf("task %d: %v", e.Rank, e.Err) }

func (e *RunError) Unwrap() error { return e.Err } //impacc:allow-unused errors.Is and errors.As call it through an anonymous interface

// Run builds the runtime for cfg, executes prog on every task, and returns
// the report.
func Run(cfg Config, prog Program) (*Report, error) {
	rt, err := NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	return rt.Execute(prog)
}

// NewRuntime validates cfg and materializes the engines, fabric, mapping,
// per-node hubs, and tasks. A multi-node system whose fabric offers a
// positive conservative lookahead (see topo.System.MinNetLatency) is
// sharded one engine per node; everything a node does — its tasks, hub,
// device streams, shared links — runs on that node's engine, and only the
// internode message path crosses engines.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		Cfg:   cfg,
		feats: cfg.features(),
	}
	nNodes := len(cfg.System.Nodes)
	rt.nodes = make([]*nodeState, nNodes)
	lookahead := cfg.System.MinNetLatency()
	perNode := make([]*sim.Engine, nNodes)
	if nNodes > 1 && lookahead > 0 {
		rt.shards = make([]*sim.Engine, nNodes)
		for i := range rt.shards {
			rt.shards[i] = sim.NewLPEngine(i)
			perNode[i] = rt.shards[i]
		}
	} else {
		e := sim.NewEngine()
		rt.shards = []*sim.Engine{e}
		for i := range perNode {
			perNode[i] = e
		}
		lookahead = 0
	}
	rt.group = sim.NewShardGroup(rt.shards, lookahead, cfg.Parallel)
	if cfg.Limits.MaxVirtualTime > 0 {
		rt.group.Deadline = sim.Time(cfg.Limits.MaxVirtualTime)
	}
	if cfg.Limits.MaxEvents > 0 {
		rt.group.MaxEvents = uint64(cfg.Limits.MaxEvents)
	}
	if lim := cfg.Limits.MaxAllocBytes; lim > 0 {
		rt.heapCap = &heapCap{limit: lim, shards: make([]heapShard, len(rt.shards))}
		rt.group.Check = rt.heapCap.check
	}
	if cfg.Progress != nil {
		rt.group.BeatEvery = cfg.Progress.Every
		// The beat counter lives in this closure, not on the Runtime: OnBeat
		// is an observer and must leave runtime state untouched.
		beatSeq := 0
		rt.group.OnBeat = func(at sim.Time) {
			rt.emitHeartbeat(beatSeq, at)
			beatSeq++
		}
	}
	if tr := cfg.Trace; tr != nil && tr.Streaming() {
		// Flush the streaming tracer at every window barrier: the fence
		// guarantee makes the flushed prefix final. A single-shard run has
		// no natural barriers (one window to completion), so give it beats
		// purely as flush points — window structure never changes simulated
		// bytes, only when memory is released.
		rt.group.OnWindow = tr.FlushWindow
		if len(rt.shards) == 1 && rt.group.BeatEvery == 0 {
			rt.group.BeatEvery = defaultStreamFlushBeat
		}
	}
	if cfg.FlightRing > 0 {
		rt.group.ArmFlight(cfg.FlightRing)
	}
	rt.Fab = topo.NewShardedFabric(perNode, cfg.System)
	if cfg.Chaos != nil {
		regs := make([]*telemetry.Registry, nNodes)
		for i, e := range perNode {
			regs[i] = e.Metrics
		}
		rt.faults = fault.NewPlan(cfg.Chaos, regs)
		rt.Fab.Faults = rt.faults
	}
	if tr := cfg.Trace; tr != nil {
		tr.Reserve(nNodes)
	}
	rt.placements = BuildMapping(cfg.System, cfg.DeviceTypes, cfg.MaxTasks)
	if len(rt.placements) == 0 {
		return nil, fmt.Errorf("core: no accelerators match device types %v", cfg.DeviceTypes)
	}
	rt.worldRanks = make([]int, len(rt.placements))
	for i := range rt.worldRanks {
		rt.worldRanks[i] = i
	}
	rt.worldLayout = newNodeLayout(rt.worldRanks, rt.placements)
	rt.lean = cfg.Lean && len(rt.placements) > leanRankThreshold
	if rt.lean && cfg.Trace != nil && !cfg.Trace.Streaming() {
		return nil, fmt.Errorf("core: lean mode above %d ranks requires a streaming tracer (span sink): a buffered trace would hold the whole causal graph in RAM", leanRankThreshold)
	}
	mcfg := cfg.msgConfig()
	for rank, pl := range rt.placements {
		ns := rt.nodes[pl.Node]
		if ns == nil {
			heap := xmem.NewHeapTable()
			neng := rt.Fab.Engine(pl.Node)
			ns = &nodeState{
				idx:   pl.Node,
				heap:  heap,
				hub:   msg.NewHub(neng, rt.Fab, pl.Node, mcfg, heap),
				devrt: device.NewRuntime(neng, rt.Fab, pl.Node),
			}
			if tr := cfg.Trace; tr != nil {
				// Record the send→recv causal edge at the instant the hub
				// matches the pair (intranode or internode), on the
				// matching node's trace lane.
				node := pl.Node
				ns.hub.OnMatch = func(sendID, recvID uint64, post sim.Time, bytes int64) {
					tr.msgEdge(node, sendID, recvID, post, neng.Now(), bytes)
				}
			}
			if rt.faults != nil {
				ns.hub.SetFaults(rt.faults)
				ns.devrt.Faults = rt.faults
				if tr := cfg.Trace; tr != nil {
					// Attribute injected resilience intervals (send-retry
					// backoff) on the affected rank's host lane so the
					// profiler's critical path can account fault time.
					node := ns.idx
					ns.hub.OnFault = func(kind string, rank int, start, end sim.Time) {
						tr.record(Span{Rank: rank, Node: node, Stream: -1,
							Kind: "retry", Name: kind, Start: start, End: end, Peer: -1})
					}
				}
			}
			if cfg.Mode == IMPACC {
				ns.space = xmem.NewSpace(
					fmt.Sprintf("node%d", pl.Node),
					len(cfg.System.Nodes[pl.Node].Devices))
			}
			rt.nodes[pl.Node] = ns
		}
		rt.tasks = append(rt.tasks, rt.newTask(rank, pl, ns))
	}
	return rt, nil
}

// pinSocket resolves the CPU socket a task is pinned to.
func (rt *Runtime) pinSocket(pl Placement) int {
	node := &rt.Cfg.System.Nodes[pl.Node]
	near := node.Devices[pl.Device].Socket
	switch rt.Cfg.Pin {
	case PinNear:
		return near
	case PinFar:
		if len(node.Sockets) < 2 {
			return near
		}
		return (near + 1) % len(node.Sockets)
	default: // PinNone
		return -1
	}
}

// Events is the total dispatched event count across all shards — the
// denominator a harness divides wall time by for events/sec (BENCH_topo).
func (rt *Runtime) Events() uint64 { return rt.group.Events() }

// Cancel stops an Execute in flight as soon as every shard finishes its
// current event; Execute then returns a *sim.CancelError. It is safe to
// call from any goroutine at any time (it only flips atomic flags), which
// is what lets a serving layer kill abandoned jobs.
func (rt *Runtime) Cancel() { rt.group.Cancel() }

// Execute runs prog across all tasks to completion.
func (rt *Runtime) Execute(prog Program) (*Report, error) {
	for _, t := range rt.tasks {
		t := t
		rt.Fab.Engine(t.pl.Node).Spawn(fmt.Sprintf("task%d", t.rank), func(p *sim.Proc) {
			t.proc = p
			defer func() {
				if r := recover(); r != nil {
					if sim.IsHaltUnwind(r) {
						// The engine halted and is unwinding this
						// task; record the end time and let the
						// sentinel keep propagating.
						t.endAt = p.Now()
						panic(r)
					}
					if re, ok := r.(*RunError); ok {
						t.err = re
					} else {
						t.err = &RunError{Rank: t.rank, Err: fmt.Errorf("panic: %v", r)}
					}
				}
				t.env.Close()
				t.endAt = p.Now()
			}()
			prog(t)
		})
	}
	simErr := rt.group.Run()
	if rt.heapCap != nil {
		// The heap error names the canonical crossing, which the first
		// failed task need not be. Like any task error it outranks the
		// group's own error, cancel included (TestHeapErrorOutranksGroup).
		if err := rt.heapCap.check(math.MaxInt64); err != nil {
			return nil, rt.taskError(err)
		}
	}
	for _, t := range rt.tasks {
		if t.err != nil {
			return nil, rt.taskError(t.err)
		}
	}
	if simErr != nil {
		// A stream process has no caller, so a failed queued operation
		// panics: a queued MPI op or kernel body with its task's *RunError,
		// a queued copy with a *device.StreamError naming the task's
		// context. Either way the owning task fails, as it would have
		// synchronously.
		if pe, ok := simErr.(*sim.PanicError); ok {
			switch v := pe.Value.(type) {
			case *RunError:
				return nil, rt.taskError(v)
			case *device.StreamError:
				for _, t := range rt.tasks {
					if t.ctx == v.Ctx {
						return nil, rt.taskError(&RunError{Rank: t.rank, Err: v})
					}
				}
			}
		}
		return nil, simErr
	}
	if tr := rt.Cfg.Trace; tr != nil {
		if err := tr.exact(); err != nil {
			return nil, err
		}
	}
	return rt.buildReport(), nil
}

// taskError returns err, the failure of a task or of the stream process
// that stood for it, and files the flight recorder's dump under it: reason
// "task-error" and err's text, so the dump names the error the run returns
// rather than, say, the deadlock the failed task left its peers in. A
// failure that let the group drain cleanly, such as the heap cap, gets a
// dump too.
func (rt *Runtime) taskError(err error) error {
	rt.group.FileStall("task-error", err)
	return err
}

// Metrics returns the run's merged telemetry registry, building it on
// first use after Execute: telemetry.MergeShards folds the shard registries into exactly
// what a single shared registry would hold — almost every family carries a
// node, rank, or resource label owned by one shard, and the series two
// shards can share (lean mode's rank="all" MPI histograms, a fault counter
// for a remote node's RDMA path) merge commutatively. The run is over, so
// the registry's clock is the group's final virtual time, read once:
// report-time gauges carry end-of-run stamps.
func (rt *Runtime) Metrics() *telemetry.Registry {
	if rt.metrics == nil {
		regs := make([]*telemetry.Registry, len(rt.shards))
		for i, e := range rt.shards {
			regs[i] = e.Metrics
		}
		reg := telemetry.MergeShards(regs)
		end := int64(rt.group.MaxNow())
		reg.SetClock(func() int64 { return end })
		rt.metrics = reg
	}
	return rt.metrics
}
