package sim

import (
	"fmt"
	"testing"
)

// TestRNGSeededDeterminism: the same seed must yield the identical stream,
// and distinct seeds must not collide over a meaningful prefix.
func TestRNGSeededDeterminism(t *testing.T) {
	const n = 1000
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < n; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("same seed diverged at draw %d: %#x != %#x", i, x, y)
		}
	}
	c, d := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < n; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of %d draws", same, n)
	}
}

// TestRNGKnownAnswers pins the SplitMix64 output so an accidental algorithm
// change (which would silently re-time every seeded benchmark) is caught.
func TestRNGKnownAnswers(t *testing.T) {
	// First three outputs of SplitMix64 seeded with 0, from the reference
	// implementation (Vigna, prng.di.unimi.it/splitmix64.c).
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	r := NewRNG(0)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("SplitMix64(seed=0) draw %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestRNGForkIndependence: per-task streams forked from one master must be
// reproducible (same master seed → same forks) and mutually distinct, and
// drawing from a fork must not perturb the parent stream.
func TestRNGForkIndependence(t *testing.T) {
	master1, master2 := NewRNG(7), NewRNG(7)
	f1a, f1b := master1.Fork(), master1.Fork()
	f2a, f2b := master2.Fork(), master2.Fork()
	for i := 0; i < 100; i++ {
		if f1a.Uint64() != f2a.Uint64() || f1b.Uint64() != f2b.Uint64() {
			t.Fatalf("forks from identical masters diverged at draw %d", i)
		}
	}

	// Sibling forks are distinct streams.
	ga, gb := NewRNG(7).Fork(), func() *RNG { m := NewRNG(7); m.Fork(); return m.Fork() }()
	same := 0
	for i := 0; i < 1000; i++ {
		if ga.Uint64() == gb.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling forks collided on %d of 1000 draws", same)
	}

	// Forking consumes exactly one parent draw; afterwards parent and child
	// are decoupled.
	p1, p2 := NewRNG(9), NewRNG(9)
	p2.Uint64() // account for the draw Fork consumes
	child := p1.Fork()
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("draining a fork perturbed the parent stream")
	}
}

// Range properties of Float64 and Intn live in sim_test.go; here we pin the
// documented panic contract.
func TestRNGIntnPanics(t *testing.T) {
	r := NewRNG(4)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

// TestEngineSeededEventOrder is the end-to-end determinism regression the
// analyzers guard: two engines driven by the same seed must produce the
// identical event order, byte for byte. Each of several processes sleeps for
// RNG-drawn durations and logs (time, proc, draw) at every step; any
// dependence on host state or map order would reorder the log.
func TestEngineSeededEventOrder(t *testing.T) {
	trace := func(seed uint64) []string {
		eng := NewEngine()
		master := NewRNG(seed)
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			rng := master.Fork()
			eng.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for step := 0; step < 8; step++ {
					d := Dur(rng.Intn(50) + 1)
					p.Sleep(d)
					log = append(log, fmt.Sprintf("t=%d p=%d step=%d d=%d", p.Now(), i, step, d))
				}
			})
		}
		if err := soloGroup(eng).Run(); err != nil {
			t.Fatalf("engine run (seed %d): %v", seed, err)
		}
		return log
	}

	a, b := trace(1234), trace(1234)
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("expected 32 log entries, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed engines diverged at event %d: %q != %q", i, a[i], b[i])
		}
	}

	c := trace(5678)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical event orders; RNG not wired through")
	}
}
