// Package bad is a fixture with deliberate invariant violations. It lives
// under testdata/ so wildcard patterns (./..., impacc/...) never match it;
// the impacc-vet tests load it explicitly to prove the gate fails loudly.
package bad

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Clock smuggles wall-clock time into what pretends to be sim state.
func Clock() int64 {
	return time.Now().UnixNano()
}

// Stamp hides the clock read behind the helper above; the interprocedural
// half of walltime flags this call site too, naming the origin.
func Stamp() int64 {
	return Clock()
}

// Pick draws from the process-global generator.
func Pick(n int) int {
	return rand.Intn(n)
}

// Keys leaks map iteration order into a slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// counter mixes sync/atomic and plain access to the same field.
type counter struct{ n int64 }

// Add goes through sync/atomic...
func (c *counter) Add() { atomic.AddInt64(&c.n, 1) }

// ...but Read tears.
func (c *counter) Read() int64 { return c.n }

// Stale carries a reasoned annotation that suppresses nothing; the
// allowstale pseudo-analyzer flags the rotten escape hatch itself.
func Stale() int {
	//impacc:allow-walltime stale: nothing here reads the clock anymore
	return 42
}

// Orphan is exported, and nothing calls it: unused flags it.
func Orphan() int { return 1 }

// Knob has a field that is read but never written: unused flags Level.
type Knob struct {
	Level int
}

// Get reads Level, but nothing calls Get: unused flags the method.
func (k *Knob) Get() int { return k.Level }

// Error makes Knob an error. Nothing calls it either, but a method that
// satisfies an interface is never flagged.
func (k Knob) Error() string { return "knob" }

// Used has a caller below, so its annotation suppresses nothing.
//
//impacc:allow-unused stale: Used has a caller now
func Used() int { return 2 }

// The violations above are used, so only the unused cases report.
var _ = []any{Clock, Stamp, Pick, Keys, Stale, (*counter).Add, (*counter).Read, Used}

// A misspelt annotation names no analyzer, so it suppresses nothing and
// allowstale flags it.
//
//impacc:allow-walltme misspelt: names no analyzer
var _ = Used()
