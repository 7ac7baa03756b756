package core

import (
	"strings"
	"testing"
	"unsafe"

	"impacc/internal/acc"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// allocPath is one message path whose per-round heap allocations are held
// to a committed budget. A round is one Isend/Irecv/Wait exchange between
// ranks 0 and 1, or a Barrier and an Allreduce, counted over the whole run
// (both ranks, their hubs and streams).
type allocPath struct {
	name   string
	cfg    Config
	device bool // exchange device copies on unified activity queue 1
	coll   bool // run a Barrier and an Allreduce instead of the exchange
	// budget is the most allocations one round may add: the count
	// measured when it was set, plus one for amortized slice growth. A new
	// allocation per message or per matched pair exceeds it. Raise it only
	// with a measured reason: every message path runs millions of times
	// in the paper's sweeps.
	budget float64
}

var allocPaths = []allocPath{
	// Nothing: the requests come off each task's free list, the fused
	// copies run from the hub's recycled pair records and the parked sends
	// sit in their match queue's map slot.
	{name: "intra-node", cfg: psgCfg(IMPACC, 2), budget: 1},
	// The 2 payload snapshots. The wire messages come off the hubs' spare
	// lists and the parked receives sit in their map slot.
	{name: "internode-host", cfg: Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}, budget: 3},
	// The 2 snapshots of internode-host. The 4 queued ops (each its
	// request record, stream entry and completion callback in one) and
	// the 2 drains, one per ACCWait, come off their task's free lists, and
	// the wait itself reuses its stream's completion event.
	{name: "unified-queue-device", cfg: Config{System: topo.Titan(2), Mode: IMPACC, Backed: true},
		device: true, budget: 3},
	// unified-queue-device without GPUDirect RDMA: each message stages
	// through host memory on both sides, and the message is its own
	// injection and landing callback, so the path costs what the RDMA one
	// does.
	{name: "internode-staged", cfg: Config{System: noRDMA(topo.Titan(2)), Mode: IMPACC, Backed: true},
		device: true, budget: 3},
	// A Barrier and an Allreduce of one float64 between two nodes: the
	// internal commands come off the free lists like the exchange's, and
	// what is left is the Reduce's scratch buffers (xmem.Space.AllocHost)
	// and a payload snapshot. The trees' child and pending lists reuse
	// their task's scratch slices.
	{name: "collective", cfg: Config{System: topo.Titan(2), Mode: IMPACC, Backed: true},
		coll: true, budget: 9},
}

// noRDMA returns sys with GPUDirect RDMA off on every NIC.
func noRDMA(sys *topo.System) *topo.System {
	for i := range sys.Nodes {
		sys.Nodes[i].NIC.RDMA = false
	}
	return sys
}

// program runs rounds exchanges on the path.
func (ap allocPath) program(rounds int) Program {
	const n = 512
	return func(tk *Task) {
		sbuf, rbuf := tk.Malloc(n*8), tk.Malloc(n*8)
		var opts []Opt
		if ap.device {
			tk.DataEnter(sbuf, n*8, acc.Create)
			tk.DataEnter(rbuf, n*8, acc.Create)
			opts = []Opt{OnDevice(), Async(1)}
		}
		peer := 1 - tk.Rank()
		for i := 0; i < rounds; i++ {
			if ap.coll {
				tk.Barrier()
				tk.Allreduce(sbuf, rbuf, 1, mpi.Float64, mpi.Sum)
				continue
			}
			s := tk.Isend(sbuf, n, mpi.Float64, peer, 0, opts...)
			r := tk.Irecv(rbuf, n, mpi.Float64, peer, 0, opts...)
			tk.Wait(s, r)
			if ap.device {
				tk.ACCWait(1)
			}
		}
		if ap.device {
			tk.DataExit(sbuf, acc.Delete)
			tk.DataExit(rbuf, acc.Delete)
		}
	}
}

// roundAllocs measures the allocations one round adds: runs of n and 2n
// rounds differ only in their last n rounds, so the set-up and tear-down
// cancel out.
func (ap allocPath) roundAllocs(tb testing.TB, n int) float64 {
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(ap.cfg, ap.program(rounds)); err != nil {
				tb.Fatal(err)
			}
		})
	}
	return (run(2*n) - run(n)) / float64(n)
}

// TestMessageAllocBudget holds each message path to its allocation budget
// per round, so a change that adds a per-message allocation fails here
// rather than only in a benchmark.
func TestMessageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, ap := range allocPaths {
		t.Run(ap.name, func(t *testing.T) {
			got := ap.roundAllocs(t, 64)
			t.Logf("%s: %.2f allocs/round (budget %.0f)", ap.name, got, ap.budget)
			if got > ap.budget {
				t.Errorf("%s: %.2f allocs per round, budget %.0f", ap.name, got, ap.budget)
			}
		})
	}
}

// TestUnifiedOpDeadlockLabel pins the deadlock diagnostics of a unified
// activity queue operation: waiting on an Isend nobody receives blocks on
// "event:mpi_isend-done".
func TestUnifiedOpDeadlockLabel(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		if tk.Rank() != 0 {
			return
		}
		buf := tk.Malloc(64)
		tk.DataEnter(buf, 64, acc.Create)
		r := tk.Isend(buf, 8, mpi.Float64, 1, 0, OnDevice(), Async(1))
		tk.Wait(r)
	})
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	found := false
	for _, b := range de.Blocked {
		found = found || strings.HasSuffix(b, "(on event:mpi_isend-done)")
	}
	if !found {
		t.Fatalf("blocked = %v, want a task blocked on event:mpi_isend-done", de.Blocked)
	}
}

// TestRequestSize keeps a request handle a pointer, a generation and a
// slot, and a command record, a unified-queue op and its barrier in the Go
// size classes their allocation budgets assume: a task's free lists hold
// them, and a task makes as many as it has in flight at once. The ops of a
// host that runs ahead of its queue are the largest share, so a slab of
// them must fit the 1792-byte size class.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 16 {
		t.Errorf("sizeof(Request) = %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(request{}); got > 192 {
		t.Errorf("sizeof(request) = %d bytes, want <= 192", got)
	}
	if got := unsafe.Sizeof([uqSlab]uqOp{}); got > 1792 {
		t.Errorf("sizeof([%d]uqOp) = %d bytes, want <= 1792", uqSlab, got)
	}
	if got := unsafe.Sizeof(uqDrain{}); got > 48 {
		t.Errorf("sizeof(uqDrain) = %d bytes, want <= 48", got)
	}
}
