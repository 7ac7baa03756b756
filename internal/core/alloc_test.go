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
// ranks 0 and 1, counted over the whole run (both ranks, their hubs and
// streams).
type allocPath struct {
	name   string
	cfg    Config
	device bool // exchange device copies on unified activity queue 1
	// budget is the most allocations one round may add: the count
	// measured when it was set, plus one for amortized slice growth. A new
	// allocation per message or per matched pair exceeds it. Raise it only
	// with a measured reason: every message path runs millions of times
	// in the paper's sweeps.
	budget float64
}

var allocPaths = []allocPath{
	// 4 requests, each owning its command. The fused copies run from the
	// hub's recycled pair records and the parked sends sit in their match
	// queue's map slot.
	{name: "intra-node", cfg: psgCfg(IMPACC, 2), budget: 5},
	// 4 requests, 2 payload snapshots and 2 wire messages, each its own
	// cross-shard delivery. The parked receives sit in their map slot.
	{name: "internode-host", cfg: Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}, budget: 9},
	// 4 queued ops, each its request, command, stream entry and completion
	// callback in one; 2 barrier stream entries, one per ACCWait (the
	// wait itself reuses its stream's completion event); plus the 2
	// snapshots and 2 wire messages of internode-host.
	{name: "unified-queue-device", cfg: Config{System: topo.Titan(2), Mode: IMPACC, Backed: true},
		device: true, budget: 11},
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

// TestRequestSize keeps a request, a unified-queue op and its barrier in the
// Go size classes their allocation budgets assume: every non-blocking call
// allocates one of the first two, every drained queue one barrier.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 192 {
		t.Errorf("sizeof(Request) = %d bytes, want <= 192", got)
	}
	if got := unsafe.Sizeof(uqOp{}); got > 256 {
		t.Errorf("sizeof(uqOp) = %d bytes, want <= 256", got)
	}
	if got := unsafe.Sizeof(uqDrain{}); got > 48 {
		t.Errorf("sizeof(uqDrain) = %d bytes, want <= 48", got)
	}
}
