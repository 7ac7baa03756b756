// Package telemetry is the simulator's metrics subsystem: a zero-dependency,
// deterministic registry of counters, gauges, and log2-bucketed histograms
// keyed by virtual time. Every layer of the stack (engine resources, fabric
// links, device streams, message hubs, MPI tasks) reports into the engine's
// registry, so a run ends with a machine-readable answer to "where did the
// time go" — the data behind the paper's breakdown figures (11, 14) and the
// handler-occupancy discussion of §3.7 — without ad-hoc counter structs.
//
// Determinism: the registry is mutated only from simulation context (the
// engine runs one process at a time), timestamps are virtual nanoseconds
// supplied by a clock callback, and snapshots sort families, series, and
// labels. Two runs with the same seed produce byte-identical exports.
package telemetry

import (
	"fmt"
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

// Registry holds metric families. The zero value is not ready; use
// NewRegistry. Merge folds finished runs into one registry (the bench
// harness aggregates a sweep this way); counters then accumulate across
// runs.
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
	// resources are the records of AddResource, read only when the registry
	// is snapshotted or merged.
	resources []*Resource
}

// family is one named metric with a fixed kind, help string, and label
// schema shared by all of its series.
type family struct {
	name   string
	help   string
	kind   Kind
	keys   []string
	series []*series // insertion order, or key order once sorted
	// byKey indexes series by key, built by the first lookup in a family
	// past linearMax series; smaller families are searched linearly.
	byKey map[string]*series
}

// linearMax is the most series a family searches without its byKey index.
// Per-node registries hold one series per family, and building a map for
// each would cost more than it saves.
const linearMax = 8

// series is one (family, label values) time series. A histogram series
// keeps its stamp in its state, so a sample touches one object.
type series struct {
	key    string     // label values joined by \x1f: the lookup and sort key
	values []string   // label values, aligned with family.keys
	lastNs int64      // virtual time of the last mutation (counters, gauges)
	ival   int64      // counter value
	fval   float64    // gauge value
	h      *Histogram // histogram handle and state, set with the series
}

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

// family returns the named family, creating it with the given schema. The
// kind and label keys must match the family's on every call — a mismatch is
// a programming error and panics.
func (r *Registry) family(name, help string, kind Kind, keys []string) *family {
	f := r.lookup(name)
	if f == nil {
		f = &family{name: name, help: help, kind: kind, keys: keys}
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	if !slices.Equal(f.keys, keys) {
		panic(fmt.Sprintf("telemetry: %s label schema %v, requested %v", name, f.keys, keys))
	}
	return f
}

// lookup returns the named family, or nil.
func (r *Registry) lookup(name string) *family {
	for _, f := range r.families {
		if f.name == name {
			return f
		}
	}
	return nil
}

// find returns the series with the given key, or nil. The first lookup in
// a family past linearMax series builds its byKey index.
func (f *family) find(key string) *series {
	if f.byKey == nil && len(f.series) <= linearMax {
		for _, s := range f.series {
			if s.key == key {
				return s
			}
		}
		return nil
	}
	if f.byKey == nil {
		f.byKey = make(map[string]*series, len(f.series))
		for _, s := range f.series {
			f.byKey[s.key] = s
		}
	}
	return f.byKey[key]
}

// add appends a series new to the family.
func (f *family) add(s *series) *series {
	if f.byKey != nil {
		f.byKey[s.key] = s
	}
	f.series = append(f.series, s)
	return s
}

// get returns the series for (name, labels), creating the family and series
// as needed. Labels are "k1, v1, k2, v2, ..." pairs. Only a new family
// allocates its label keys.
func (r *Registry) get(name, help string, kind Kind, kv []string) *series {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	f := r.lookup(name)
	if f == nil || !f.schemaIs(kind, kv) {
		keys := make([]string, len(kv)/2)
		for i := range keys {
			keys[i] = kv[2*i]
		}
		f = r.family(name, help, kind, keys) // creates, or panics on a mismatch
	}
	values := make([]string, len(kv)/2)
	for i := range values {
		values[i] = kv[2*i+1]
	}
	key := strings.Join(values, "\x1f")
	if s := f.find(key); s != nil {
		return s
	}
	return f.add(&series{key: key, values: values})
}

// schemaIs reports whether the family has the given kind and the label
// keys of the "k1, v1, ..." list kv.
func (f *family) schemaIs(kind Kind, kv []string) bool {
	if f.kind != kind || 2*len(f.keys) != len(kv) {
		return false
	}
	for i, k := range f.keys {
		if kv[2*i] != k {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	r *Registry
	s *series
}

// Counter returns the counter series for (name, labels), creating it at
// zero on first use. Labels are "key, value" pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r: r, s: r.get(name, help, KindCounter, labels)}
}

// Add increases the counter by d (negative deltas are ignored).
func (c *Counter) Add(d int64) {
	if d <= 0 {
		return
	}
	c.s.ival += d
	c.s.lastNs = c.r.now()
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.s.ival }

// Gauge is a floating-point metric that can move in both directions.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{r: r, s: r.get(name, help, KindGauge, labels)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.s.fval = v
	g.s.lastNs = g.r.now()
}

// SetMax stores v if it exceeds the current value (peak tracking).
func (g *Gauge) SetMax(v float64) {
	if v > g.s.fval {
		g.s.fval = v
		g.s.lastNs = g.r.now()
	}
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

// Histogram returns the histogram series for (name, labels).
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	s := r.get(name, help, KindHistogram, labels)
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
// keep the latest. Resource records fold as MergeShards folds them, r's
// as shard 0 and src's as shard 1, and r keeps the folded rows as its
// records. src must be quiescent (its run finished).
func (r *Registry) Merge(src *Registry) {
	for _, sf := range src.families {
		df := r.family(sf.name, sf.help, sf.kind, sf.keys)
		for _, ss := range sf.series {
			if d := df.find(ss.key); d != nil {
				mergeSeries(d, ss, sf.kind)
			} else {
				df.add(ss.clone(r))
			}
		}
	}
	if len(r.resources)+len(src.resources) > 0 {
		recs := r.appendRecords(make([]shardRecord, 0, len(r.resources)+len(src.resources)), 0)
		r.resources = foldRecords(src.appendRecords(recs, 1))
	}
}

// MergeShards returns the registry of a finished sharded run: what merging
// regs (one registry per shard) into a fresh registry gives, built once per
// family by sorting the union of the shards' series by key and merging
// where keys coincide (lean mode's rank="all" histograms and remote-RDMA
// fault counters are the series shards share), so no series is looked up
// or inserted in a map. The shards' resource records are folded once, by
// the rules of Merge where shards share a name, and the result holds the
// folded rows as its records, one per name. A single registry is returned
// itself, its records folded the same way, so its snapshots do not fold
// them again. The result shares the series only one shard holds, so regs
// must be quiescent and stay unmutated while it is in use; its clock is
// unset.
func MergeShards(regs []*Registry) *Registry {
	if len(regs) == 1 {
		r := regs[0]
		r.resources = r.resourceRows()
		return r
	}
	out, nrec, nser := NewRegistry(), 0, map[*family]int{}
	for _, src := range regs {
		for _, sf := range src.families {
			nser[out.family(sf.name, sf.help, sf.kind, sf.keys)] += len(sf.series)
		}
		nrec += len(src.resources)
	}
	for _, src := range regs {
		for _, sf := range src.families {
			f := out.lookup(sf.name)
			if f.series == nil {
				f.series = make([]*series, 0, nser[f])
			}
			f.series = append(f.series, sf.series...) // the union, merged below
		}
	}
	recs := make([]shardRecord, 0, nrec)
	for i, src := range regs {
		recs = src.appendRecords(recs, i)
	}
	out.resources = foldRecords(recs)
	for _, f := range out.families {
		all := f.series
		slices.SortFunc(all, func(a, b *series) int { return strings.Compare(a.key, b.key) })
		n := 0
		for i := 0; i < len(all); i, n = i+1, n+1 {
			s := all[i]
			if i+1 < len(all) && all[i+1].key == s.key {
				s = s.clone(out) // the shards keep their own series intact
				for ; i+1 < len(all) && all[i+1].key == s.key; i++ {
					mergeSeries(s, all[i+1], f.kind)
				}
			}
			all[n] = s
		}
		f.series = all[:n]
	}
	return out
}

// clone returns a copy of s, for registry r, that shares no mutable state
// with it.
func (s *series) clone(r *Registry) *series {
	c := *s
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
		dst.ival += src.ival
	case KindGauge:
		if src.fval > dst.fval {
			dst.fval = src.fval
		}
	case KindHistogram:
		dst.h.merge(&src.h.hist)
	}
	if src.lastNs > dst.lastNs {
		dst.lastNs = src.lastNs
	}
}
