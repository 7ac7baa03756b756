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
	"sort"
	"strings"
	"sync"
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
// NewRegistry. A registry may be shared across several engine runs (the
// bench harness does this to aggregate a sweep); counters then accumulate
// across runs.
//
// Concurrency: direct mutation (Add, Set, Observe) is only safe from a
// single goroutine — in practice, simulation context. An aggregate registry
// fed exclusively through Merge may receive merges from many goroutines
// concurrently; Merge and Snapshot lock, single-run mutators do not.
type Registry struct {
	mu       sync.Mutex // guards Merge/Snapshot on shared aggregates
	clock    func() int64
	families map[string]*family
	names    []string // insertion order, for stable iteration before sorting
}

// family is one named metric with a fixed kind, help string, and label
// schema shared by all of its series.
type family struct {
	name   string
	help   string
	kind   Kind
	keys   []string
	series map[string]*series
	order  []string // series keys in insertion order
}

// series is one (family, label values) time series.
type series struct {
	values []string // label values, aligned with family.keys
	lastNs int64    // virtual time of the last mutation

	// counter/gauge state
	ival int64
	fval float64

	// histogram state: bucket i counts values v with bits.Len64(v) == i,
	// i.e. v in [2^(i-1), 2^i - 1]; bucket 0 counts v == 0.
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

// labelPairs splits variadic "k1, v1, k2, v2, ..." arguments.
func labelPairs(kv []string) (keys, values []string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	for i := 0; i < len(kv); i += 2 {
		keys = append(keys, kv[i])
		values = append(values, kv[i+1])
	}
	return keys, values
}

// get returns the series for (name, labels), creating the family and series
// as needed. The label schema and kind must match the family's on every
// call — a mismatch is a programming error and panics.
func (r *Registry) get(name, help string, kind Kind, kv []string) *series {
	keys, values := labelPairs(kv)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, keys: keys, series: map[string]*series{}}
		r.families[name] = f
		r.names = append(r.names, name)
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %v, requested as %v", name, f.kind, kind))
		}
		if len(f.keys) != len(keys) {
			panic(fmt.Sprintf("telemetry: %s label schema %v, requested %v", name, f.keys, keys))
		}
		for i := range keys {
			if f.keys[i] != keys[i] {
				panic(fmt.Sprintf("telemetry: %s label schema %v, requested %v", name, f.keys, keys))
			}
		}
	}
	k := strings.Join(values, "\x1f")
	s, ok := f.series[k]
	if !ok {
		s = &series{values: values}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	return s
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

// Value reports the current gauge value.
func (g *Gauge) Value() float64 { return g.s.fval }

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
	s := h.s
	s.buckets[bits.Len64(uint64(v))]++
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.lastNs = h.r.now()
}

// Count reports the number of observed samples.
func (h *Histogram) Count() uint64 { return h.s.count }

// Sum reports the total of observed samples.
func (h *Histogram) Sum() int64 { return h.s.sum }

// Merge folds every series of src into r. Rules are commutative so a set of
// merges lands in the same final state regardless of completion order, which
// keeps parallel sweeps deterministic: counters and histogram buckets add,
// gauges keep the maximum (peak semantics across runs), histogram min/max
// widen, and timestamps keep the latest. src must be quiescent (its run
// finished); r may be merged into from several goroutines concurrently.
func (r *Registry) Merge(src *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range src.names {
		sf := src.families[name]
		for _, k := range sf.order {
			ss := sf.series[k]
			kv := make([]string, 0, 2*len(sf.keys))
			for i, key := range sf.keys {
				kv = append(kv, key, ss.values[i])
			}
			mergeSeries(r.get(name, sf.help, sf.kind, kv), ss, sf.kind)
		}
	}
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
		if src.count > 0 {
			if dst.count == 0 || src.min < dst.min {
				dst.min = src.min
			}
			if src.max > dst.max {
				dst.max = src.max
			}
			for i := range dst.buckets {
				dst.buckets[i] += src.buckets[i]
			}
			dst.count += src.count
			dst.sum += src.sum
		}
	}
	if src.lastNs > dst.lastNs {
		dst.lastNs = src.lastNs
	}
}

// Reset empties the registry in place for reuse: every family is dropped
// but the top-level map buckets and the names slice keep their storage, so
// a pooled registry re-fills without re-growing. The clock is cleared too —
// a reset registry is observably identical to a fresh NewRegistry().
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = nil
	for _, name := range r.names {
		delete(r.families, name)
	}
	r.names = r.names[:0]
}

// Pool recycles registries across runs. A benchmark sweep allocates one
// registry per shard engine per run; at thousands of leaf runs the
// allocation and map-growth cost shows up in profiles, so the harness hands
// each finished run's registries back and the next run starts from warmed
// maps. Get and Put are safe from concurrent sweep workers. The zero value
// is ready to use.
type Pool struct {
	mu   sync.Mutex
	free []*Registry
}

// Get returns an empty registry, reusing a pooled one when available.
func (p *Pool) Get() *Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return NewRegistry()
}

// Put resets r and shelves it for the next Get. Callers must not retain
// references to r or its metrics after Put.
func (p *Pool) Put(r *Registry) {
	if r == nil {
		return
	}
	r.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, r)
}

// sortedFamilies returns the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	out := make([]*family, 0, len(names))
	for _, n := range names {
		out = append(out, r.families[n])
	}
	return out
}

// sortedSeries returns a family's series ordered by label values.
func (f *family) sortedSeries() []*series {
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	return out
}
