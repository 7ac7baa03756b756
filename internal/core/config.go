// Package core is the IMPACC runtime (the paper's primary contribution):
// it launches one threaded-MPI task per accelerator with automatic
// task-device mapping (§3.2, Figure 2), pins tasks to NUMA-near CPUs
// (§3.3), gives every task on a node the unified node virtual address space
// (§3.4), provides unified MPI communication routines (§3.5), the unified
// activity queue (§3.6), the message-handler communication engine (§3.7),
// and node heap aliasing (§3.8).
//
// The same runtime also executes the legacy MPI+OpenACC baseline: tasks
// become OS processes with private address spaces, no pinning, no fusion,
// no aliasing, and no unified queue — the configuration every paper figure
// compares against.
package core

import (
	"fmt"

	"impacc/internal/fault"
	"impacc/internal/msg"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// Mode selects the programming-model implementation.
type Mode int

const (
	// IMPACC is the paper's integrated runtime.
	IMPACC Mode = iota
	// Legacy is the traditional MPI+OpenACC baseline.
	Legacy
)

func (m Mode) String() string {
	if m == IMPACC {
		return "IMPACC"
	}
	return "MPI+OpenACC"
}

// PinPolicy controls task-CPU pinning (§3.3, Figure 8).
type PinPolicy int

const (
	// PinDefault resolves to PinNear under IMPACC and PinNone under legacy.
	PinDefault PinPolicy = iota
	// PinNear pins each task next to its accelerator (NUMA-friendly).
	PinNear
	// PinFar pins each task to a far socket (the NUMA-unfriendly
	// configuration measured in Figure 8).
	PinFar
	// PinNone leaves tasks unpinned (OS placement).
	PinNone
)

// Features toggles the individual IMPACC techniques, for ablations. The
// zero value means "defaults for the mode".
type Features struct {
	Aliasing     bool // node heap aliasing (§3.8)
	DirectP2P    bool // direct DtoD over shared root complex
	RDMA         bool // GPUDirect RDMA internode
	UnifiedQueue bool // MPI ops on OpenACC activity queues (§3.6)
}

// DefaultFeatures returns the canonical feature set for a mode.
func DefaultFeatures(m Mode) Features {
	if m == IMPACC {
		return Features{Aliasing: true, DirectP2P: true, RDMA: true, UnifiedQueue: true}
	}
	return Features{}
}

// Limits caps one run's resource consumption so a hosting tool (the bench
// harness, impacc-serve) can bound runaway or abusive jobs. The zero value
// means unlimited. Hitting a cap is deterministic — the same configuration
// always stops at the same point — and surfaces as an error from Run, never
// as a silently truncated report.
type Limits struct {
	// MaxVirtualTime fails the run with a *sim.LimitError once the virtual
	// clock would pass it.
	MaxVirtualTime sim.Dur
	// MaxEvents fails the run after this many dispatched engine events.
	MaxEvents int64
	// MaxAllocBytes bounds the total task host-heap bytes (Task.Malloc)
	// across all tasks. The run fails with a *RunError naming the first
	// allocation, in virtual-time order, that passes it. An allocation
	// that takes its own node's total past the cap fails before it gets
	// storage.
	MaxAllocBytes int64
}

// ParseLimits builds Limits from the -max-vtime, -max-events and
// -max-alloc flags every front-end shares. An empty or "0" vtime, like a
// zero count, means unlimited; a negative count fails. The error names the
// flag.
func ParseLimits(vtime string, events, alloc int64) (Limits, error) {
	l := Limits{MaxEvents: events, MaxAllocBytes: alloc}
	if vtime != "" && vtime != "0" {
		var err error
		if l.MaxVirtualTime, err = sim.ParseDur(vtime); err != nil {
			return l, fmt.Errorf("max-vtime: %w", err)
		}
	}
	return l, l.check("max-events", "max-alloc")
}

// check rejects a negative MaxEvents or MaxAllocBytes, naming the count
// by the matching label: a negative count must not run unlimited under a
// content address of its own.
func (l Limits) check(events, alloc string) error {
	if l.MaxEvents < 0 {
		return fmt.Errorf("%s: %d is negative (0 means unlimited)", events, l.MaxEvents)
	}
	if l.MaxAllocBytes < 0 {
		return fmt.Errorf("%s: %d is negative (0 means unlimited)", alloc, l.MaxAllocBytes)
	}
	return nil
}

// Config describes one run.
type Config struct {
	System *topo.System
	Mode   Mode
	// DeviceTypes is the IMPACC_ACC_DEVICE_TYPE bit field (Figure 2);
	// zero selects every accelerator (acc_device_default).
	DeviceTypes topo.ClassMask
	Pin         PinPolicy
	// Features overrides DefaultFeatures(Mode) when non-nil.
	Features *Features
	// Backed attaches real storage to allocations so applications compute
	// genuine results; disable for extreme-scale timing-only runs.
	Backed bool
	// Seed drives all pseudo-randomness (jitter, application data).
	Seed uint64
	// MaxTasks caps the number of launched tasks (0 = all devices).
	MaxTasks int
	// JitterPct adds deterministic pseudo-random skew to host compute
	// (percent, e.g. 2.0). Models OS noise; 0 disables.
	JitterPct float64
	// Lean turns on the memory-lean big-run mode. On systems above
	// leanRankThreshold ranks: per-rank telemetry series collapse into
	// aggregated rank="all" series, progress heartbeats carry sorted phase
	// counts instead of one phase string per rank, and buffered
	// (non-streaming) tracers are rejected so the causal graph never
	// resides in RAM — stream spans through a Tracer with a SpanSink
	// instead. At or below the threshold lean is a no-op and reports are
	// byte-identical to a non-lean run. Because lean changes what a big run
	// reports, it is part of the canonical content hash, unlike the pure
	// observer fields below.
	Lean bool
	// Trace, when non-nil, collects per-task execution spans (kernels,
	// copies, MPI blocking, host compute) for timeline export. It is a pure
	// observer, left out of the canonical content hash: span collection
	// never changes simulated bytes.
	Trace *Tracer
	// Chaos, when non-nil, instantiates a deterministic fault-injection
	// plan for the run (see internal/fault): link degradation and flaps,
	// NIC send stalls, compute stragglers, transient device-copy failures,
	// plus the matching resilience knobs (timeout, retries, backoff).
	Chaos *fault.Spec
	// Limits caps the run's virtual time, event count, and task heap; the
	// zero value is unlimited.
	Limits Limits
	// Parallel is the number of worker threads driving the sharded
	// simulation engine (intra-run parallelism). Like Trace it
	// changes how the run executes, never what it simulates: any worker
	// count produces byte-identical reports, traces, and telemetry by
	// construction, so the field is excluded from the canonical content
	// hash. Values below 1 mean serial.
	Parallel int
	// Progress, when non-nil, emits deterministic virtual-time heartbeats
	// every Progress.Every of virtual time (see Progress). A pure observer
	// like Trace, excluded from the canonical content hash: heartbeats never
	// change simulated bytes.
	Progress *Progress
	// FlightRing, when positive, arms a per-shard flight recorder keeping
	// the most recent FlightRing dispatched-event stamps; a run that ends
	// abnormally (cancel, deadlock, limits, causality panic) then exposes a
	// stall dump through Runtime.Stall. A diagnostics ring, excluded from
	// the canonical content hash: armed or not, simulated bytes are
	// identical.
	FlightRing int
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	if c.System == nil {
		return fmt.Errorf("core: Config.System is required")
	}
	if len(c.System.Nodes) == 0 {
		return fmt.Errorf("core: system has no nodes")
	}
	if err := c.Limits.check("core: Limits.MaxEvents", "core: Limits.MaxAllocBytes"); err != nil {
		return err
	}
	c.Pin = c.pin()
	if c.Progress != nil {
		if c.Progress.Every <= 0 {
			return fmt.Errorf("core: Config.Progress.Every must be positive")
		}
		if c.Progress.Emit == nil {
			return fmt.Errorf("core: Config.Progress.Emit is required")
		}
	}
	return nil
}

// pin resolves PinDefault by mode: PinNear under IMPACC, PinNone under
// legacy.
func (c *Config) pin() PinPolicy {
	switch {
	case c.Pin != PinDefault:
		return c.Pin
	case c.Mode == IMPACC:
		return PinNear
	}
	return PinNone
}

// features resolves the effective feature set.
func (c *Config) features() Features {
	if c.Features != nil {
		return *c.Features
	}
	return DefaultFeatures(c.Mode)
}

// msgConfig builds the hub configuration.
func (c *Config) msgConfig() msg.Config {
	f := c.features()
	mc := msg.Config{
		Legacy:         c.Mode == Legacy,
		Aliasing:       f.Aliasing,
		RDMA:           f.RDMA,
		DirectP2P:      f.DirectP2P,
		ThreadMultiple: c.System.ThreadMultiple,
		MPIOverhead:    c.System.MPIOverhead,
	}
	if c.Chaos != nil {
		mc.NetTimeout = c.Chaos.Timeout()
		mc.MaxNetRetries = c.Chaos.Retries()
		mc.NetBackoff = c.Chaos.Backoff()
	}
	return mc
}

// Placement maps one rank to its node and device (Figure 2).
type Placement struct {
	Node   int
	Device int
}

// BuildMapping computes the automatic task-device mapping: one task per
// accelerator matching the device-type mask, ranks assigned node-major in
// device order, capped at maxTasks when positive (paper §3.2: "the IMPACC
// runtime automatically creates the same number of MPI tasks as the number
// of all available or user's specified accelerators").
func BuildMapping(sys *topo.System, mask topo.ClassMask, maxTasks int) []Placement {
	var out []Placement
	for n := range sys.Nodes {
		for d := range sys.Nodes[n].Devices {
			if mask.Has(sys.Nodes[n].Devices[d].Class) {
				out = append(out, Placement{Node: n, Device: d})
				if maxTasks > 0 && len(out) == maxTasks {
					return out
				}
			}
		}
	}
	return out
}
