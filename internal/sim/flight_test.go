package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// beatGroup builds the ring workload on its own group so tests can attach
// beat observers and flight rings before Run.
func beatGroup(nShards, rounds int, lookahead Dur, workers int) (*ShardGroup, []*Engine) {
	engines := make([]*Engine, nShards)
	for i := range engines {
		engines[i] = NewLPEngine(i)
	}
	g := NewShardGroup(engines, lookahead, workers)
	for i := range engines {
		i := i
		e := engines[i]
		dst := engines[(i+1)%nShards]
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(Dur(30 + i*7 + k))
				e.Post(dst, e.Now()+Time(lookahead)+Time(1+i*3), Func(func() {}))
				p.Sleep(Dur(11 + i))
			}
		})
	}
	return g, engines
}

// TestBeatBoundariesDeterministic: beat boundaries fire at exact multiples of
// BeatEvery in order, each with every event at or before the boundary
// dispatched on every shard — and the full (boundary, events) sequence is
// identical for every worker count.
func TestBeatBoundariesDeterministic(t *testing.T) {
	type snap struct {
		At     Time
		Events uint64
		Next   Time
	}
	var ref []snap
	for _, workers := range []int{1, 2, 8} {
		g, engines := beatGroup(4, 6, 100, workers)
		g.BeatEvery = 50
		var got []snap
		g.OnBeat = func(at Time) {
			s := snap{At: at, Events: g.Events(), Next: -1}
			if next, ok := g.NextAt(); ok {
				s.Next = next
			}
			// The beat contract: the boundary is settled. Nothing pending
			// anywhere may be at or before it, and no shard has run past the
			// window fence that proved the boundary settled.
			if s.Next >= 0 && s.Next <= at {
				t.Fatalf("workers=%d: beat at %d with pending event at %d", workers, at, s.Next)
			}
			for _, e := range engines {
				if e.Now() > at+Time(g.BeatEvery)+100 {
					t.Fatalf("workers=%d: shard %d at %d, far past beat %d", workers, e.lp, e.Now(), at)
				}
			}
			got = append(got, s)
		}
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) == 0 {
			t.Fatalf("workers=%d: no beats fired", workers)
		}
		for i, s := range got {
			if s.At != Time(50*(i+1)) {
				t.Fatalf("workers=%d: beat %d at %d, want %d", workers, i, s.At, 50*(i+1))
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: beat sequence diverges:\n got %v\nwant %v", workers, got, ref)
		}
	}
}

// TestBeatSingleShard: the degenerate serial group (one engine, zero
// lookahead) still fires beats — a single-node run's progress feed must not
// go dark.
func TestBeatSingleShard(t *testing.T) {
	e := NewEngine()
	g := NewShardGroup([]*Engine{e}, 0, 1)
	g.BeatEvery = 40
	e.Spawn("p", func(p *Proc) {
		for k := 0; k < 10; k++ {
			p.Sleep(Dur(25))
		}
	})
	var beats []Time
	g.OnBeat = func(at Time) { beats = append(beats, at) }
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 sleeps of 25 reach t=250; boundaries 40..240 fire, trailing
	// boundaries after the last event do not (the run is over).
	want := []Time{40, 80, 120, 160, 200, 240}
	if !reflect.DeepEqual(beats, want) {
		t.Fatalf("beats = %v, want %v", beats, want)
	}
}

// TestFlightRingWraps: the ring keeps exactly the n most recent dispatched
// events, oldest first, with increasing (at, seq).
func TestFlightRingWraps(t *testing.T) {
	e := NewEngine()
	e.ArmFlight(4)
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(10*(i+1)), func() { _ = i })
	}
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	sf := e.FlightShard()
	if len(sf.Recent) != 4 {
		t.Fatalf("ring holds %d stamps, want 4", len(sf.Recent))
	}
	for i, s := range sf.Recent {
		if want := Time(10 * (7 + i)); Time(s.AtNs) != want {
			t.Fatalf("recent[%d].at = %d, want %d (last four events)", i, s.AtNs, want)
		}
		if s.Kind != "fn" {
			t.Fatalf("recent[%d].kind = %q, want fn for inline callbacks", i, s.Kind)
		}
		if i > 0 && s.Seq <= sf.Recent[i-1].Seq {
			t.Fatalf("ring seq not increasing: %v", sf.Recent)
		}
	}
}

// TestStallReportReasons: each abnormal stop maps to its reason string and
// the dump names the parked processes of the stop instant.
func TestStallReportReasons(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
		g := NewShardGroup(engines, 50, 2)
		g.ArmFlight(8)
		for i, e := range engines {
			ev := e.NewEvent("never")
			e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
				p.Sleep(Dur(10 * (i + 1)))
				ev.Wait(p)
			})
		}
		if _, ok := g.Run().(*DeadlockError); !ok {
			t.Fatal("want DeadlockError")
		}
		st := g.Stall()
		if st == nil || st.Reason != "deadlock" {
			t.Fatalf("stall = %+v, want reason deadlock", st)
		}
		ranks := st.ParkedRanks()
		if !reflect.DeepEqual(ranks, []string{"stuck0", "stuck1"}) {
			t.Fatalf("parked ranks = %v, want both stuck processes", ranks)
		}
		for _, sh := range st.Shards {
			for _, p := range sh.Parked {
				if p.BlockedOn != "event:never" {
					t.Fatalf("parked %q blocked on %q, want the event's why string", p.Name, p.BlockedOn)
				}
			}
		}
	})

	t.Run("event-limit", func(t *testing.T) {
		g, _ := beatGroup(2, 1000, 100, 1)
		g.MaxEvents = 60
		g.ArmFlight(8)
		if _, ok := g.Run().(*LimitError); !ok {
			t.Fatal("want LimitError")
		}
		st := g.Stall()
		if st == nil || st.Reason != "event-limit" || st.Events == 0 {
			t.Fatalf("stall = %+v, want reason event-limit", st)
		}
		if len(st.ParkedRanks()) == 0 {
			t.Fatal("event-limit stall names no parked ranks")
		}
	})

	t.Run("cancel", func(t *testing.T) {
		g, engines := beatGroup(2, 1000, 100, 2)
		g.ArmFlight(8)
		engines[0].At(Time(500), func() { g.Cancel() })
		if _, ok := g.Run().(*CancelError); !ok {
			t.Fatal("want CancelError")
		}
		if st := g.Stall(); st == nil || st.Reason != "cancel" {
			t.Fatalf("stall = %+v, want reason cancel", st)
		}
	})

	t.Run("disarmed", func(t *testing.T) {
		g, _ := beatGroup(2, 10, 100, 1)
		g.MaxEvents = 20
		if _, ok := g.Run().(*LimitError); !ok {
			t.Fatal("want LimitError")
		}
		if g.Stall() != nil {
			t.Fatal("disarmed group captured a stall report")
		}
	})
}

// TestStallReportJSON: the stall.json encoding is valid JSON carrying the
// reason and per-shard rings.
func TestStallReportJSON(t *testing.T) {
	g, _ := beatGroup(2, 1000, 100, 1)
	g.MaxEvents = 60
	g.ArmFlight(4)
	if err := g.Run(); err == nil {
		t.Fatal("run did not trip the event budget")
	}
	var buf bytes.Buffer
	if err := g.Stall().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded StallReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("stall.json does not decode: %v", err)
	}
	if decoded.Reason != "event-limit" || len(decoded.Shards) != 2 {
		t.Fatalf("decoded stall = %+v, want event-limit with 2 shards", decoded)
	}
	if !strings.Contains(buf.String(), "\"recent\"") {
		t.Fatal("stall.json carries no flight rings")
	}
}

// TestCausalityPanicCaptured: a lookahead bound violation surfaces as the
// posting dispatch's *PanicError — not a panic escaping Run — and the armed
// flight recorder labels the stall "causality".
func TestCausalityPanicCaptured(t *testing.T) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
	g := NewShardGroup(engines, 50, 1)
	g.ArmFlight(8)
	// Shard 0 lies about the lookahead: it posts an event 1ns out while
	// shard 1's window (fence = 10+50) lets it run to t=40, so the event
	// would land in shard 1's past.
	engines[0].At(Time(10), func() {
		engines[0].Post(engines[1], Time(11), Func(func() {}))
	})
	engines[1].At(Time(20), func() {})
	engines[1].At(Time(40), func() {})
	err := g.Run()
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("Run returned %v, want the post's *PanicError", err)
	}
	if pe.Proc != postProc {
		t.Fatalf("panic attributed to %q, want %s", pe.Proc, postProc)
	}
	st := g.Stall()
	if st == nil || st.Reason != "causality" {
		t.Fatalf("stall = %+v, want reason causality", st)
	}
}
