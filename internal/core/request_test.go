package core

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"impacc/internal/acc"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// metricFamily is a family of a report's metrics export, decoded.
type metricFamily struct {
	Name   string
	Series []struct {
		Labels []struct{ Key, Value string }
		Count  uint64
	}
}

// metricFamilies decodes the report's metrics export.
func metricFamilies(t *testing.T, rep *Report) []metricFamily {
	t.Helper()
	b, err := json.Marshal(rep.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Families []metricFamily }
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Families
}

// live reports whether h is live on task tk.
func live(tk *Task, h Request) bool {
	r, _ := tk.live(h)
	return r != nil
}

// opSamples counts the MPI latency samples rank recorded under op.
func opSamples(t *testing.T, rep *Report, rank int, op string) uint64 {
	for _, fam := range metricFamilies(t, rep) {
		if fam.Name != MPILatencyNs {
			continue
		}
		for _, s := range fam.Series {
			var r, o string
			for _, l := range s.Labels {
				switch l.Key {
				case "rank":
					r = l.Value
				case "op":
					o = l.Value
				}
			}
			if r == strconv.Itoa(rank) && o == op {
				return s.Count
			}
		}
	}
	return 0
}

// TestWaitFreedHandleReturnsAtOnce: the Wait that completes a request frees
// it, so a second Wait on the same handle is a Wait on MPI_REQUEST_NULL. It
// returns at once and records no wait sample.
func TestWaitFreedHandleReturnsAtOnce(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(64)
		if tk.Rank() == 1 {
			tk.Recv(buf, 8, mpi.Float64, 0, 0)
			return
		}
		r := tk.Isend(buf, 8, mpi.Float64, 1, 0)
		tk.Wait(r)
		if live(tk, r) {
			t.Error("handle still live after the Wait that completed it")
		}
		t0 := tk.Now()
		tk.Wait(r)
		if tk.Now() != t0 {
			t.Errorf("second Wait took %v, want 0", dur(tk.Now()-t0))
		}
	})
	if n := opSamples(t, rep, 0, "wait"); n != 1 {
		t.Errorf("rank 0 recorded %d wait samples, want 1", n)
	}
}

// TestStaleHandleSkipsReusedRecord: a freed record is reused by the task's
// next request, and a handle from before the reuse names the completed op,
// not the new one: waiting on it must not wait for the later send, which
// rank 1 receives 5 ms later.
func TestStaleHandleSkipsReusedRecord(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(64)
		if tk.Rank() == 1 {
			tk.Recv(buf, 8, mpi.Float64, 0, 0)
			tk.Busy(5 * sim.Millisecond)
			tk.Recv(buf, 8, mpi.Float64, 0, 1)
			return
		}
		r1 := tk.Isend(buf, 8, mpi.Float64, 1, 0)
		tk.Wait(r1)
		r2 := tk.Isend(buf, 8, mpi.Float64, 1, 1)
		if r2.r != r1.r {
			t.Fatal("the second Isend did not reuse the freed record")
		}
		t0 := tk.Now()
		tk.Wait(r1)
		if tk.Now() != t0 {
			t.Errorf("Wait on the stale handle took %v, want 0", dur(tk.Now()-t0))
		}
		tk.Wait(r2)
		if tk.Now()-t0 < sim.Time(5*sim.Millisecond) {
			t.Errorf("Wait on the live handle took %v, want >= 5ms", dur(tk.Now()-t0))
		}
	})
}

// TestWaitanyLoopTerminates: Waitany frees the request it returns, so a
// loop that never clears its list sees each request once and then -1.
func TestWaitanyLoopTerminates(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 3), func(tk *Task) {
		buf := tk.Malloc(64)
		if tk.Rank() != 0 {
			tk.Send(buf, 4, mpi.Float64, 0, tk.Rank())
			return
		}
		reqs := []Request{
			tk.Irecv(buf, 4, mpi.Float64, 1, 1),
			tk.Irecv(buf+32, 4, mpi.Float64, 2, 2),
		}
		var got []int
		for i := tk.Waitany(reqs...); i >= 0; i = tk.Waitany(reqs...) {
			got = append(got, i)
			if len(got) > len(reqs) {
				t.Fatalf("Waitany returned %v: a request came back after it completed", got)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, []int{0, 1}) {
			t.Errorf("Waitany returned %v, want each of 0 and 1 once", got)
		}
	})
}

// TestQueuedHandleFreedByItsWait: a request placed on a unified activity
// queue goes null after the call that completes it, as one posted at once
// does: the drain of ACCWait, after which Waitany returns -1, or a Wait
// before the drain, after which a second Wait records no wait sample.
func TestQueuedHandleFreedByItsWait(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(64)
		if tk.Rank() == 1 {
			tk.Recv(buf, 8, mpi.Float64, 0, 0)
			tk.Recv(buf, 8, mpi.Float64, 0, 1)
			return
		}
		tk.DataEnter(buf, 64, acc.Create)
		r := tk.Isend(buf, 8, mpi.Float64, 1, 0, OnDevice(), Async(1))
		tk.ACCWait(1)
		for n, i := 0, tk.Waitany(r); i >= 0; n, i = n+1, tk.Waitany(r) {
			if n > 0 {
				t.Fatalf("Waitany returned %d again after it completed the queued request", i)
			}
		}
		r = tk.Isend(buf, 8, mpi.Float64, 1, 1, OnDevice(), Async(1))
		tk.Wait(r)
		if live(tk, r) {
			t.Error("queued handle still live after the Wait that completed it")
		}
		tk.Wait(r)
	})
	if n := opSamples(t, rep, 0, "wait"); n != 1 {
		t.Errorf("rank 0 recorded %d wait samples, want 1", n)
	}
}

// TestQueuedRequestFreedByDrain: the drain that passes a queued op
// completes it, as "#pragma acc wait" does, so after ACCWait the op's
// handle is null: Wait and Waitany on it return at once and record no
// wait sample. The next queued op reuses the record, and the old handle
// stays null.
func TestQueuedRequestFreedByDrain(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(64)
		tk.DataEnter(buf, 64, acc.Create)
		post := func(tag int) Request {
			if tk.Rank() == 0 {
				return tk.Isend(buf, 8, mpi.Float64, 1, tag, OnDevice(), Async(1))
			}
			return tk.Irecv(buf, 8, mpi.Float64, 0, tag, OnDevice(), Async(1))
		}
		r := post(0)
		tk.ACCWait(1)
		if live(tk, r) {
			t.Errorf("rank %d: queued handle still live after ACCWait", tk.Rank())
		}
		t0 := tk.Now()
		tk.Wait(r)
		if i := tk.Waitany(r); i != -1 {
			t.Errorf("rank %d: Waitany(drained) = %d, want -1", tk.Rank(), i)
		}
		if tk.Now() != t0 {
			t.Errorf("rank %d: Wait and Waitany on a drained handle took %v, want 0", tk.Rank(), dur(tk.Now()-t0))
		}
		r2 := post(1)
		if r2.slot != r.slot {
			t.Errorf("rank %d: the next queued op did not reuse the drained record", tk.Rank())
		}
		if live(tk, r) || !live(tk, r2) {
			t.Errorf("rank %d: after reuse the old handle is live or the new one null", tk.Rank())
		}
		tk.ACCWait(1)
		tk.Wait(r, r2)
		tk.DataExit(buf, acc.Delete)
	})
	for rank := range 2 {
		if n := opSamples(t, rep, rank, "wait"); n != 0 {
			t.Errorf("rank %d recorded %d wait samples, want 0", rank, n)
		}
	}
}

// TestWaitanyNoLiveRequest: with no live request MPI_Waitany returns
// MPI_UNDEFINED at once; here that is -1, as for an empty list.
func TestWaitanyNoLiveRequest(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		if i := tk.Waitany(Request{}, Request{}); i != -1 {
			t.Errorf("Waitany(null, null) = %d, want -1", i)
		}
		buf := tk.Malloc(64)
		peer := 1 - tk.Rank()
		r := tk.Isend(buf, 1, mpi.Float64, peer, 0)
		tk.Recv(buf+8, 1, mpi.Float64, peer, 0)
		tk.Wait(r)
		t0 := tk.Now()
		if i := tk.Waitany(r); i != -1 {
			t.Errorf("Waitany(freed) = %d, want -1", i)
		}
		if tk.Now() != t0 {
			t.Errorf("Waitany(freed) took %v, want 0", dur(tk.Now()-t0))
		}
	})
}

// TestRecvStatusAcrossNodes: RecvStatus reads the matched source, tag and
// count before it frees the request, on internode wildcard receives whose
// records are reused from one call to the next.
func TestRecvStatusAcrossNodes(t *testing.T) {
	mustRun(t, Config{System: topo.Titan(3), Mode: IMPACC, Backed: true}, func(tk *Task) {
		buf := tk.Malloc(256)
		if tk.Rank() != 0 {
			tk.Busy(sim.Dur(tk.Rank()) * sim.Millisecond)
			tk.Send(buf, tk.Rank()*4, mpi.Float64, 0, tk.Rank()*10)
			return
		}
		for want := 1; want <= 2; want++ {
			st := tk.RecvStatus(buf, 32, mpi.Float64, AnySource, AnyTag)
			if st != (Status{Source: want, Tag: want * 10, Count: want * 4}) {
				t.Errorf("RecvStatus = %+v, want source %d, tag %d, count %d", st, want, want*10, want*4)
			}
		}
	})
}

// TestFailedRecvNeverReused: a receive that fails fails its task in the
// Wait, before the request would be freed, so its record keeps its
// generation and never returns to the free list.
func TestFailedRecvNeverReused(t *testing.T) {
	var failed *Task
	var r Request
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(64)
		if tk.Rank() == 1 {
			tk.Send(buf, 8, mpi.Float64, 0, 0)
			return
		}
		failed = tk
		r = tk.Irecv(buf, 4, mpi.Float64, 1, 0)
		tk.Wait(r)
	})
	if err == nil || !strings.Contains(err.Error(), "truncation") {
		t.Fatalf("Run = %v, want a truncation error", err)
	}
	if !live(failed, r) {
		t.Error("the failed request was freed")
	}
	if slices.Contains(failed.reqFree, r.r) {
		t.Error("the failed request's record is on the free list")
	}
}
