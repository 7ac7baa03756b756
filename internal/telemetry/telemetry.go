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

// Label is one name=value pair attached to a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Registry holds metric families. The zero value is not ready; use
// NewRegistry. Merge folds finished runs into one registry (the bench
// harness aggregates a sweep this way); counters then accumulate across
// runs.
//
// Concurrency: a registry has no lock. One goroutine owns it — in practice
// the simulation context of its engine, or the harness folding finished
// runs — and whoever shares one across goroutines holds a lock around every
// call, Merge and Snapshot included.
type Registry struct {
	clock    func() int64
	families map[string]*family
	names    []string // insertion order, for stable iteration before sorting
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

// series is one (family, label values) time series.
type series struct {
	key    string   // label values joined by \x1f: the lookup and sort key
	values []string // label values, aligned with family.keys
	lastNs int64    // virtual time of the last mutation
	ival   int64    // counter value
	fval   float64  // gauge value
	h      *hist    // histogram state, allocated by the first sample
}

// hist is a histogram series' state: bucket i counts values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]; bucket 0 counts v == 0.
type hist struct {
	buckets  [65]uint64
	count    uint64
	sum      int64
	min, max int64
}

// NewRegistry returns an empty registry with a zero clock.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

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
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, keys: keys}
		r.families[name] = f
		r.names = append(r.names, name)
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
	f, ok := r.families[name]
	if !ok || !f.schemaIs(kind, kv) {
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
// [2^(i-1), 2^i - 1]; bucket 0 counts zeros.
type Histogram struct {
	r *Registry
	s *series
}

// Histogram returns the histogram series for (name, labels).
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return &Histogram{r: r, s: r.get(name, help, KindHistogram, labels)}
}

// Observe records one sample (negative samples clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	s := h.s.h
	if s == nil {
		s = new(hist)
		h.s.h = s
	}
	s.buckets[bits.Len64(uint64(v))]++
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	h.s.lastNs = h.r.now()
}

// emptyHist is the state of a histogram series with no samples.
var emptyHist hist

// hist returns the series' histogram state, which is empty before the first
// sample.
func (s *series) hist() *hist {
	if s.h == nil {
		return &emptyHist
	}
	return s.h
}

// Merge folds every series of src into r. Rules are commutative so a set of
// merges lands in the same final state regardless of completion order, which
// keeps parallel sweeps deterministic: a series new to r is copied as it is;
// otherwise counters and histogram buckets add, gauges keep the maximum
// (peak semantics across runs), histogram min/max widen, and timestamps
// keep the latest. src's resource records arrive as the four sim_resource_*
// families. src must be quiescent (its run finished).
func (r *Registry) Merge(src *Registry) {
	for _, sf := range src.allFamilies() {
		df := r.family(sf.name, sf.help, sf.kind, sf.keys)
		for _, ss := range sf.series {
			if d := df.find(ss.key); d != nil {
				mergeSeries(d, ss, sf.kind)
			} else {
				df.add(ss.clone())
			}
		}
	}
}

// MergeShards returns the registry of a finished sharded run: what merging
// regs (one registry per shard) into a fresh registry gives, built once per
// family by sorting the union of the shards' series by key and merging
// where keys coincide (lean mode's rank="all" histograms and remote-RDMA
// fault counters are the series shards share), so no series is looked up
// or inserted in a map. A single registry is returned as it is. The result
// shares the series only one shard holds, so regs must be quiescent and
// stay unmutated while it is in use; its clock is unset.
func MergeShards(regs []*Registry) *Registry {
	if len(regs) == 1 {
		return regs[0]
	}
	out, union := NewRegistry(), map[string][]*series{}
	for _, src := range regs {
		for _, sf := range src.allFamilies() {
			out.family(sf.name, sf.help, sf.kind, sf.keys)
			union[sf.name] = append(union[sf.name], sf.series...)
		}
	}
	for _, name := range out.names {
		f, all := out.families[name], union[name]
		slices.SortFunc(all, func(a, b *series) int { return strings.Compare(a.key, b.key) })
		n := 0
		for i := 0; i < len(all); i, n = i+1, n+1 {
			s := all[i]
			if i+1 < len(all) && all[i+1].key == s.key {
				s = s.clone() // the shards keep their own series intact
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

// clone returns a copy of s that shares no mutable state with it.
func (s *series) clone() *series {
	c := *s
	if s.h != nil {
		h := *s.h
		c.h = &h
	}
	return &c
}

// allFamilies returns the registry's families, with its resource records
// materialized as the four resource families.
func (r *Registry) allFamilies() []*family {
	fams := r.resourceFamilies()
	for _, name := range r.names {
		fams = append(fams, r.families[name])
	}
	return fams
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
		if s := src.hist(); s.count > 0 {
			if dst.h == nil {
				dst.h = new(hist)
			}
			d := dst.h
			if d.count == 0 || s.min < d.min {
				d.min = s.min
			}
			if s.max > d.max {
				d.max = s.max
			}
			for i := range d.buckets {
				d.buckets[i] += s.buckets[i]
			}
			d.count += s.count
			d.sum += s.sum
		}
	}
	if src.lastNs > dst.lastNs {
		dst.lastNs = src.lastNs
	}
}
