package core

import (
	"cmp"
	"fmt"
	"slices"

	"impacc/internal/sim"
)

// heapCap enforces Limits.MaxAllocBytes so that the error is the same at
// every worker count: the run fails at the first allocation, in canonical
// order (virtual time, shard, order within the shard), that takes the
// run's total past the cap. A Malloc that takes its own shard's total past
// the cap fails its task before it is backed; that allocation is at or
// after the canonical crossing, and other shards see the failure only
// after the next fence. In a one-shard group that is the whole check. With
// more shards the group's Check names the crossing at the first window
// barrier after it, and Execute checks once more when the run ends.
type heapCap struct {
	limit int64
	// folded sums the allocations check has taken out of the ledgers; they
	// precede every allocation still held. err is the crossing, once found.
	folded int64
	err    error
	// shards is written by each shard for itself and read by check only
	// with every shard quiescent.
	shards []heapShard
}

// heapShard is one shard's total and its allocations not yet checked.
type heapShard struct {
	total  int64
	ledger []heapAlloc
}

// heapAlloc is one Task.Malloc.
type heapAlloc struct {
	at   sim.Time
	rank int
	n    int64
}

// charge records an allocation of n bytes by rank on eng's shard, now, and
// returns an error when it takes the shard's total past the cap.
func (c *heapCap) charge(eng *sim.Engine, rank int, n int64) error {
	s := &c.shards[eng.LP()]
	s.ledger = append(s.ledger, heapAlloc{at: eng.Now(), rank: rank, n: n})
	s.total += n
	if s.total > c.limit {
		return c.exceeded(s.total-n, n)
	}
	return nil
}

func (c *heapCap) exceeded(sum, n int64) error {
	return fmt.Errorf("core: task heap limit exceeded: %d + %d bytes > cap %d", sum, n, c.limit)
}

// check returns the heap-limit error of the first allocation before
// horizon, in canonical order, that takes the run's total past the cap;
// nil when there is none (yet). It takes the allocations before horizon
// out of the ledgers, so each ledger holds about one window. Every shard
// must be quiescent.
func (c *heapCap) check(horizon sim.Time) error {
	if c.err != nil {
		return c.err
	}
	var final []heapAlloc
	for i := range c.shards {
		s := &c.shards[i]
		k := 0
		for k < len(s.ledger) && s.ledger[k].at < horizon {
			k++
		}
		final = append(final, s.ledger[:k]...)
		s.ledger = append(s.ledger[:0], s.ledger[k:]...)
	}
	// final is in shard order, each shard in dispatch order, so a stable
	// sort by time yields the canonical order.
	slices.SortStableFunc(final, func(x, y heapAlloc) int { return cmp.Compare(x.at, y.at) })
	for _, a := range final {
		if c.folded+a.n > c.limit {
			c.err = &RunError{Rank: a.rank, Err: c.exceeded(c.folded, a.n)}
			return c.err
		}
		c.folded += a.n
	}
	return nil
}
