// Package telemetry is the simulator's metrics subsystem: a zero-dependency,
// deterministic registry of counters, gauges, and log2-bucketed histograms
// keyed by virtual time. Every layer of the stack (engine resources, fabric
// links, device streams, message hubs, MPI tasks) reports into the engine's
// registry, so a run ends with a machine-readable answer to "where did the
// time go" — the data behind the paper's breakdown figures (11, 14) and the
// handler-occupancy discussion of §3.7 — without ad-hoc counter structs.
//
// Cost: a family's descriptor (Family) is a package-level value that every
// registry of the process shares, a counter or gauge is its series, and a
// component that keeps several totals per node (a serialized resource, a
// message hub) keeps them as a plain-field Record, which the registry
// reads as series only when snapshotted or merged. So a node's telemetry
// costs about one record and a few series, not a descriptor set per node.
//
// Determinism: the registry is mutated only from simulation context (the
// engine runs one process at a time), timestamps are virtual nanoseconds
// supplied by a clock callback, a registry keeps each family's series sorted
// by label values, and snapshots order families by name. Two runs with the
// same seed produce byte-identical exports.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Kind discriminates metric families.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Family is a metric family's schema: its name, help text, kind and label
// keys. Declare each family once, as a package-level value (NewFamily):
// every registry of the process shares the descriptor, and a registry
// holds only the family's series.
type Family struct {
	name string
	help string
	kind Kind
	keys []string
}

// NewFamily returns the schema of a family with the given name, help text,
// kind and label keys.
func NewFamily(name, help string, kind Kind, keys ...string) *Family {
	return &Family{name: name, help: help, kind: kind, keys: keys}
}

// Registry holds metric families and records. The zero value is not ready; use
// NewRegistry. Each family's series are kept sorted by label values, so a
// lookup bisects and a snapshot reads them as they are. Merge folds
// finished runs into one registry (the bench harness aggregates a sweep
// this way); counters then accumulate across runs.
//
// Concurrency: a registry has no lock. One goroutine owns it — in practice
// the simulation context of its engine, or the harness folding finished
// runs — and whoever shares one across goroutines holds a lock around every
// call, Merge, Snapshot and the writes of a snapshot included.
type Registry struct {
	clock func() int64
	// families in registration order, searched linearly: the code fixes
	// the set of family names, a few dozen at most.
	families []*family
	// records are the records of AddRecord, read only when the registry is
	// snapshotted or merged.
	records []Record
}

// family is a registry's series of one Family, sorted by key: get inserts
// a new series in its place, and a merge folds into that order.
type family struct {
	*Family
	series []*series
}

// series is one (family, label values) time series: a counter or gauge
// itself (Counter and Gauge are its handles), or a histogram's key and
// handle. Its label values are read out of its key.
type series struct {
	key    string     // label values joined by \x1f: the lookup and sort key
	r      *Registry  // stamps mutations with its clock
	lastNs int64      // virtual time of the last mutation (counters, gauges)
	v      int64      // counter value, or a gauge's float64 bits
	h      *Histogram // histogram handle and state, set with the series
}

// gauge returns a gauge series' value.
func (s *series) gauge() float64 { return math.Float64frombits(uint64(s.v)) }

// hist is a histogram's state: bucket i counts values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]; bucket 0 counts v == 0.
// The header a sample updates comes first. b holds only the occupied range
// of buckets, lo through lo+len(b)-1, and starts out in the inline array
// one, so a histogram whose samples share a magnitude keeps all of its
// state in one small object; a wider range moves to a slice of its own.
// The sample count is the buckets' sum.
type hist struct {
	sum      int64
	min, max int64
	lastNs   int64 // virtual time of the last sample
	lo       int
	b        []uint64
	one      [1]uint64
}

// add counts n samples in bucket i, widening the stored range to hold it.
func (h *hist) add(i int, n uint64) {
	if j := i - h.lo; uint(j) < uint(len(h.b)) {
		h.b[j] += n
		return
	}
	if len(h.b) == 0 {
		h.lo, h.b = i, h.one[:]
		h.b[0] = n
		return
	}
	lo, hi := min(h.lo, i), max(h.lo+len(h.b), i+1)
	if lo == h.lo && hi-lo <= cap(h.b) {
		h.b = h.b[:hi-lo] // the spare capacity was never written: zero
	} else {
		b := make([]uint64, hi-lo, hi-lo+1)
		copy(b[h.lo-lo:], h.b)
		h.lo, h.b = lo, b
	}
	h.b[i-lo] += n
}

// le returns the upper bound of stored bucket j: 2^(lo+j) - 1, or 0.
func (h *hist) le(j int) int64 {
	if b := h.lo + j; b > 0 {
		return 1<<uint(b) - 1
	}
	return 0
}

// count returns the number of samples.
func (h *hist) count() uint64 {
	n := uint64(0)
	for _, c := range h.b {
		n += c
	}
	return n
}

// merge folds src's samples into h: buckets and sum add, min and max
// widen, the stamp keeps the latest.
func (h *hist) merge(src *hist) {
	if len(src.b) > 0 {
		if len(h.b) == 0 || src.min < h.min {
			h.min = src.min
		}
		h.max = max(h.max, src.max)
		h.sum += src.sum
		for j, n := range src.b {
			if n != 0 {
				h.add(src.lo+j, n)
			}
		}
	}
	h.lastNs = max(h.lastNs, src.lastNs)
}

// NewRegistry returns an empty registry with a zero clock.
func NewRegistry() *Registry { return &Registry{} }

// SetClock installs the virtual-time source stamped onto every mutation.
// The simulation engine points this at its clock when it adopts a registry.
func (r *Registry) SetClock(fn func() int64) { r.clock = fn }

func (r *Registry) now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// family returns the registry's series of f, adding the family on first
// use. A registered family of f's name must have f's kind and label keys —
// a mismatch is a programming error and panics.
func (r *Registry) family(f *Family) *family {
	for _, rf := range r.families {
		if rf.Family == f {
			return rf
		}
		if rf.name == f.name {
			if rf.kind != f.kind {
				panic(fmt.Sprintf("telemetry: %s registered as %v, requested as %v", f.name, rf.kind, f.kind))
			}
			if !slices.Equal(rf.keys, f.keys) {
				panic(fmt.Sprintf("telemetry: %s label schema %v, requested %v", f.name, rf.keys, f.keys))
			}
			return rf
		}
	}
	rf := &family{Family: f}
	r.families = append(r.families, rf)
	return rf
}

// get returns the series of f with the given label values, one per label
// key, creating it as needed. A value must not hold the key separator
// \x1f.
func (r *Registry) get(f *Family, kind Kind, values []string) *series {
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s is a %v, requested as a %v", f.name, f.kind, kind))
	}
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("telemetry: %s has label keys %q, got values %q", f.name, f.keys, values))
	}
	for _, v := range values {
		if strings.Contains(v, keySep) {
			panic(fmt.Sprintf("telemetry: %s label value %q holds the key separator", f.name, v))
		}
	}
	rf := r.family(f)
	key := strings.Join(values, keySep)
	i, ok := slices.BinarySearchFunc(rf.series, key, func(s *series, key string) int { return strings.Compare(s.key, key) })
	if !ok {
		rf.series = slices.Insert(rf.series, i, &series{key: key, r: r})
	}
	return rf.series[i]
}

// keySep separates the label values in a series key.
const keySep = "\x1f"

// Counter is a monotonically increasing integer metric: its series.
type Counter series

// Counter returns the counter series of f with the given label values,
// creating it at zero on first use.
func (r *Registry) Counter(f *Family, values ...string) *Counter {
	return (*Counter)(r.get(f, KindCounter, values))
}

// Add increases the counter by d (negative deltas are ignored).
func (c *Counter) Add(d int64) {
	if d <= 0 {
		return
	}
	c.v += d
	c.lastNs = c.r.now()
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a floating-point metric that can move in both directions: its
// series.
type Gauge series

// Gauge returns the gauge series of f with the given label values.
func (r *Registry) Gauge(f *Family, values ...string) *Gauge {
	return (*Gauge)(r.get(f, KindGauge, values))
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.v = int64(math.Float64bits(v))
	g.lastNs = g.r.now()
}

// Histogram is a log2-bucketed distribution of non-negative int64 samples
// (durations in nanoseconds, sizes in bytes). Bucket i counts samples in
// [2^(i-1), 2^i - 1]; bucket 0 counts zeros. A histogram series has one
// handle, which holds its state, so a sample is a few stores into one
// object.
type Histogram struct {
	hist
	r *Registry // stamps samples with its clock
}

// Histogram returns the histogram series of f with the given label values.
func (r *Registry) Histogram(f *Family, values ...string) *Histogram {
	s := r.get(f, KindHistogram, values)
	if s.h == nil {
		s.h = &Histogram{r: r}
	}
	return s.h
}

// Observe records one sample (negative samples clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if len(h.b) == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.add(bits.Len64(uint64(v)), 1)
	h.sum += v
	h.lastNs = h.r.now()
}

// Merge folds every series of src into r. Rules are commutative so a set of
// merges lands in the same final state regardless of completion order, which
// keeps parallel sweeps deterministic: a series new to r is copied as it is;
// otherwise counters and histogram buckets add, gauges keep the maximum
// (peak semantics across runs), histogram min/max widen, and timestamps
// keep the latest. Records fold as MergeShards folds them, r's as shard 0
// and src's as shard 1, and r keeps the folded rows as its records. src
// must be quiescent (its run finished).
func (r *Registry) Merge(src *Registry) { r.merge([]*Registry{src}, false) }

// MergeShards returns the registry of a finished sharded run: what merging
// regs (one registry per shard) into a fresh registry gives, by the one
// fold Merge uses (merge). The shards' records are folded once, by the
// rules of Merge where shards share a name, and the result holds the
// folded rows as its records, one per name. A series or record only one
// shard holds is shared, not copied; a shared series stamps with the
// result's clock from then on. A single registry is returned itself, its
// records folded the same way, so its snapshots do not fold them again. So
// regs must be quiescent and stay unmutated while the result is in use;
// its clock is unset.
func MergeShards(regs []*Registry) *Registry {
	if len(regs) == 1 {
		r := regs[0]
		r.records = r.recordRows()
		return r
	}
	out := NewRegistry()
	out.merge(regs, true)
	return out
}

// merge folds the series and records of srcs into r, the one algorithm of
// Merge and MergeShards. Per family, r's series and then each source's, in
// order, are sorted stably by key, so r's own series comes first among
// equal keys, and each run of equal keys folds into one series: r's own,
// or else a copy of the run's first. A key only one source holds is that
// source's series itself, adopted by r, when share is set, and a copy
// otherwise. Records fold by foldRecords, r's as shard 0 and srcs[i]'s as
// shard i+1. Each family's union and the record list are sized before
// they are filled, so each is allocated once.
func (r *Registry) merge(srcs []*Registry, share bool) {
	union, nrec := map[*family]int{}, len(r.records)
	for _, src := range srcs {
		for _, sf := range src.families {
			f := r.family(sf.Family)
			if _, ok := union[f]; !ok {
				union[f] = len(f.series)
			}
			union[f] += len(sf.series)
		}
		nrec += len(src.records)
	}
	for _, src := range srcs {
		for _, sf := range src.families {
			f := r.family(sf.Family)
			f.series = append(slices.Grow(f.series, union[f]-len(f.series)), sf.series...)
		}
	}
	for _, f := range r.families {
		if _, ok := union[f]; !ok {
			continue
		}
		all := f.series
		slices.SortStableFunc(all, func(a, b *series) int { return strings.Compare(a.key, b.key) })
		n := 0
		for i := 0; i < len(all); n++ {
			s, j := all[i], i+1
			for j < len(all) && all[j].key == s.key {
				j++
			}
			switch {
			case s.r == r: // r's own series
			case share && j == i+1:
				s.adopt(r)
			default:
				s = s.clone(r) // the sources keep their own series intact
			}
			for _, o := range all[i+1 : j] {
				mergeSeries(s, o, f.kind)
			}
			all[n], i = s, j
		}
		clear(all[n:]) // keep no source's series alive
		f.series = all[:n]
	}
	if nrec > 0 {
		recs := r.appendRecords(make([]shardRecord, 0, nrec), 0)
		for i, src := range srcs {
			recs = src.appendRecords(recs, i+1)
		}
		r.records = foldRecords(recs, share)
	}
}

// adopt makes r the registry whose clock stamps s from now on.
func (s *series) adopt(r *Registry) {
	s.r = r
	if s.h != nil {
		s.h.r = r
	}
}

// clone returns a copy of s, for registry r, that shares no mutable state
// with it.
func (s *series) clone(r *Registry) *series {
	c := *s
	c.r = r
	if s.h != nil {
		c.h = &Histogram{r: r}
		c.h.merge(&s.h.hist)
	}
	return &c
}

// mergeSeries applies the per-kind commutative merge of src into dst.
func mergeSeries(dst, src *series, kind Kind) {
	switch kind {
	case KindCounter:
		dst.v += src.v
	case KindGauge:
		if src.gauge() > dst.gauge() {
			dst.v = src.v
		}
	case KindHistogram:
		dst.h.merge(&src.h.hist)
	}
	if src.lastNs > dst.lastNs {
		dst.lastNs = src.lastNs
	}
}
