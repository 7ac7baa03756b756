package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// withInPlace runs fn with in-place resume switched to on, restoring the
// setting afterwards.
func withInPlace(on bool, fn func()) {
	defer func(was bool) { inPlaceResume = was }(inPlaceResume)
	inPlaceResume = on
	fn()
}

// TestResumeInPlaceAlone: a process alone on its shard resumes every sleep
// in place, with the stamps a switching sleep would get: a zero sleep is a
// same-instant child one level deeper, a real one resets the depth.
func TestResumeInPlaceAlone(t *testing.T) {
	e := NewEngine()
	var depths []int32
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Dur(i % 2))
			depths = append(depths, int32(e.depth()))
		}
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if e.inPlace != 10 || e.dispatched != 11 || e.now != 5 {
		t.Fatalf("in place %d, events %d, now %d; want 10, 11, 5", e.inPlace, e.dispatched, e.now)
	}
	if got := fmt.Sprint(depths); got != "[1 0 1 0 1 0 1 0 1 0]" {
		t.Fatalf("depths %s", got)
	}
}

// TestResumeInPlacePingPong: two processes that sleep the same duration in
// lockstep each find the other's wake-up queued at their own wake time, so
// every sleep switches.
func TestResumeInPlacePingPong(t *testing.T) {
	e := NewEngine()
	for _, name := range []string{"ping", "pong"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if e.inPlace != 0 || e.dispatched != 22 {
		t.Fatalf("in place %d, events %d; want 0, 22", e.inPlace, e.dispatched)
	}
}

// TestResumeInPlaceFence: in a 2-shard group a sleep that reaches the
// window fence switches, so the barrier still sees the shard parked; every
// sleep inside the window resumes in place.
func TestResumeInPlaceFence(t *testing.T) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
	g := NewShardGroup(engines, 100, 1)
	var at []Time
	engines[0].Spawn("stepper", func(p *Proc) {
		for i := 0; i < 30; i++ {
			p.Sleep(10)
			at = append(at, p.Now())
		}
	})
	engines[1].Spawn("far", func(p *Proc) { p.Sleep(1000) })
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	// Windows start at 0, 100 and 200, so the sleeps to 100, 200 and 300
	// cross a fence and the other 27 do not.
	if e := engines[0]; e.inPlace != 27 || len(at) != 30 || at[29] != 300 {
		t.Fatalf("in place %d, %d wake-ups ending at %v; want 27, 30, 300", e.inPlace, len(at), at[len(at)-1])
	}
	if engines[1].inPlace != 0 {
		t.Fatalf("shard 1 resumed %d sleeps in place across a fence", engines[1].inPlace)
	}
}

// limitRun is one capped run of a process that sleeps one nanosecond at a
// time: its error, stall dump and beats, and how many sleeps resumed in
// place.
type limitRun struct {
	err     string
	stall   string
	beats   string
	inPlace uint64
}

func runCapped(t *testing.T, on bool, sleeps int, configure func(g *ShardGroup)) limitRun {
	t.Helper()
	var r limitRun
	withInPlace(on, func() {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(1)
			}
		})
		g := soloGroup(e)
		g.ArmFlight(8)
		var beats bytes.Buffer
		g.OnBeat = func(at Time) { fmt.Fprintf(&beats, "%d:%d ", at, g.Events()) }
		configure(g)
		err := g.Run()
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("err = %v, want a *LimitError", err)
		}
		var dump bytes.Buffer
		if err := g.Stall().WriteJSON(&dump); err != nil {
			t.Fatal(err)
		}
		r = limitRun{err: err.Error(), stall: dump.String(), beats: beats.String(), inPlace: e.inPlace}
	})
	return r
}

// checkSamePaths runs the capped program through both paths and requires
// the same error, stall dump and beats, with in-place resumes on one path
// only.
func checkSamePaths(t *testing.T, sleeps int, configure func(g *ShardGroup)) limitRun {
	t.Helper()
	fast, slow := runCapped(t, true, sleeps, configure), runCapped(t, false, sleeps, configure)
	if fast.inPlace == 0 || slow.inPlace != 0 {
		t.Fatalf("in-place resumes: %d on, %d off", fast.inPlace, slow.inPlace)
	}
	fast.inPlace = 0
	if fast != slow {
		t.Fatalf("in-place run differs from the switching run:\n got %+v\nwant %+v", fast, slow)
	}
	return fast
}

// TestResumeInPlaceEventCap: a MaxEvents cap that falls inside a run of
// in-place sleeps, close to the cap (exact stamps) and far from it (window
// slices), stops at the same event with the same flight ring as switching.
func TestResumeInPlaceEventCap(t *testing.T) {
	for _, maxEvents := range []uint64{50, 9000} {
		r := checkSamePaths(t, 20000, func(g *ShardGroup) { g.MaxEvents = maxEvents })
		want := fmt.Sprintf("sim: events limit %d exceeded at t=%v", maxEvents, Dur(maxEvents-1))
		if r.err != want {
			t.Fatalf("err %q, want %q", r.err, want)
		}
	}
}

// TestResumeInPlaceDeadlineAndBeats: Deadline and BeatEvery clamp the
// window fence, so in-place sleeps stop at each boundary and the beats and
// the deadline fire at the same instants, after the same events.
func TestResumeInPlaceDeadlineAndBeats(t *testing.T) {
	r := checkSamePaths(t, 1000, func(g *ShardGroup) {
		g.Deadline = 200
		g.BeatEvery = 64
	})
	if r.beats != "64:65 128:129 192:193 " {
		t.Fatalf("beats %q", r.beats)
	}
	if want := "sim: vtime limit 200 exceeded at t=200ns"; r.err != want {
		t.Fatalf("err %q, want %q", r.err, want)
	}
}

// TestResumeInPlaceCancel: a process that loops on Sleep alone on its shard
// would never switch; a pending cancel sends its next sleep through the
// switching path, so the run still stops there.
func TestResumeInPlaceCancel(t *testing.T) {
	e := NewEngine()
	g := soloGroup(e)
	e.Spawn("looper", func(p *Proc) {
		for i := 0; i < 1_000_000; i++ {
			if i == 100 {
				g.Cancel()
			}
			p.Sleep(1)
		}
		t.Error("the looping process ran on after Cancel")
	})
	err := g.Run()
	var ce *CancelError
	if !errors.As(err, &ce) || ce.At != 100 {
		t.Fatalf("err = %v, want a *CancelError at t=100", err)
	}
	if e.inPlace != 100 {
		t.Fatalf("in place %d, want 100", e.inPlace)
	}
}
