package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the registry's earlier code paths as references for the
// equivalence tests: series registered through label pairs joined into a map
// key, a keyed Merge that registers every source series again, resource
// monitors registered as four series each, a Snapshot that copies every
// series into plain structs sorted by joined keys, encoding/json for
// WriteJSON and fmt for WritePrometheus. Counters and gauges are mutated
// through the registry's own Counter and Gauge handles, whose registry only
// supplies the clock. A histogram keeps its own state, the earlier flat
// 65-bucket layout, so the reference checks the compact hist's widening and
// merge rather than sharing them.

type refRegistry struct {
	clk      *Registry // clock source for the shared handles
	families map[string]*refFamily
	names    []string
}

type refFamily struct {
	name, help string
	kind       Kind
	keys       []string
	series     map[string]*refSeries
	order      []string
}

// refSeries is a counter or gauge series, or a histogram's state, with
// its label values.
type refSeries struct {
	series
	values []string
	h      *refHist
}

// refHist is the earlier histogram state: every bucket stored.
type refHist struct {
	clk                   *Registry
	buckets               [65]uint64
	count                 uint64
	sum, min, max, lastNs int64
}

func (h *refHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.lastNs = h.clk.now()
}

func (h *refHist) merge(src *refHist) {
	if src.count > 0 {
		if h.count == 0 || src.min < h.min {
			h.min = src.min
		}
		h.max = max(h.max, src.max)
		for i, n := range src.buckets {
			h.buckets[i] += n
		}
		h.count += src.count
		h.sum += src.sum
	}
	h.lastNs = max(h.lastNs, src.lastNs)
}

func newRefRegistry(clock func() int64) *refRegistry {
	clk := NewRegistry()
	clk.SetClock(clock)
	return &refRegistry{clk: clk, families: map[string]*refFamily{}}
}

func refLabelPairs(kv []string) (keys, values []string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	for i := 0; i < len(kv); i += 2 {
		keys = append(keys, kv[i])
		values = append(values, kv[i+1])
	}
	return keys, values
}

func (r *refRegistry) get(name, help string, kind Kind, kv []string) *refSeries {
	keys, values := refLabelPairs(kv)
	f, ok := r.families[name]
	if !ok {
		f = &refFamily{name: name, help: help, kind: kind, keys: keys, series: map[string]*refSeries{}}
		r.families[name] = f
		r.names = append(r.names, name)
	} else if f.kind != kind || strings.Join(f.keys, ",") != strings.Join(keys, ",") {
		panic("telemetry: schema mismatch for " + name)
	}
	k := strings.Join(values, "\x1f")
	s, ok := f.series[k]
	if !ok {
		s = &refSeries{series: series{r: r.clk}, values: values}
		if kind == KindHistogram {
			s.h = &refHist{clk: r.clk}
		}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	return s
}

func (r *refRegistry) Counter(name, help string, kv ...string) *Counter {
	return (*Counter)(&r.get(name, help, KindCounter, kv).series)
}

func (r *refRegistry) Gauge(name, help string, kv ...string) *Gauge {
	return (*Gauge)(&r.get(name, help, KindGauge, kv).series)
}

func (r *refRegistry) Histogram(name, help string, kv ...string) *refHist {
	return r.get(name, help, KindHistogram, kv).h
}

// refMonitor is the earlier per-resource monitor: four registered series.
type refMonitor struct {
	busy, wait, uses *Counter
	peak             *Gauge
}

func (r *refRegistry) Resource(name string) *refMonitor {
	return &refMonitor{
		busy: r.Counter(ResourceBusyNs, "accumulated occupied time per serialized resource", "resource", name),
		wait: r.Counter(ResourceWaitNs, "accumulated queue-wait time per serialized resource", "resource", name),
		uses: r.Counter(ResourceUses, "completed occupations per serialized resource", "resource", name),
		peak: r.Gauge(ResourcePeakBacklogNs, "largest single queue-wait observed per serialized resource", "resource", name),
	}
}

func (m *refMonitor) Observe(waitNs, occupyNs int64) {
	m.busy.Add(occupyNs)
	m.wait.Add(waitNs)
	m.uses.Inc()
	setMax(m.peak, float64(waitNs))
}

func (r *refRegistry) Merge(src *refRegistry) {
	for _, name := range src.names {
		sf := src.families[name]
		for _, k := range sf.order {
			ss := sf.series[k]
			kv := make([]string, 0, 2*len(sf.keys))
			for i, key := range sf.keys {
				kv = append(kv, key, ss.values[i])
			}
			d := r.get(name, sf.help, sf.kind, kv)
			if sf.kind == KindHistogram {
				d.h.merge(ss.h)
			} else {
				mergeSeries(&d.series, &ss.series, sf.kind)
			}
		}
	}
}

// jsonSnap, jsonFamily, jsonSeries and jsonBucket are the snapshot schema
// as encoding/json encodes it: the reference registry snapshots into them,
// and tests decode WriteJSON's output into them.
type jsonSnap struct {
	AtNs     int64        `json:"at_ns"`
	Families []jsonFamily `json:"families"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Series []jsonSeries `json:"series"`
}

// Label is one name=value pair attached to a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type jsonSeries struct {
	Labels     []Label      `json:"labels,omitempty"`
	LastNs     int64        `json:"last_ns"`
	Value      int64        `json:"value,omitempty"`
	GaugeValue float64      `json:"gauge_value,omitempty"`
	Count      uint64       `json:"count,omitempty"`
	Sum        int64        `json:"sum,omitempty"`
	Min        int64        `json:"min,omitempty"`
	Max        int64        `json:"max,omitempty"`
	Buckets    []jsonBucket `json:"buckets,omitempty"`
}

type jsonBucket struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

func (r *refRegistry) Snapshot(atNs int64) *jsonSnap {
	snap := &jsonSnap{AtNs: atNs, Families: []jsonFamily{}}
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		fs := jsonFamily{Name: f.name, Help: f.help, Kind: f.kind.String(), Series: []jsonSeries{}}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := jsonSeries{LastNs: s.lastNs}
			for i, key := range f.keys {
				ss.Labels = append(ss.Labels, Label{Key: key, Value: s.values[i]})
			}
			switch f.kind {
			case KindCounter:
				ss.Value = s.v
			case KindGauge:
				ss.GaugeValue = s.gauge()
			default:
				ss.LastNs, ss.Count, ss.Sum, ss.Min, ss.Max = s.h.lastNs, s.h.count, s.h.sum, s.h.min, s.h.max
				for i, n := range s.h.buckets {
					if n == 0 {
						continue
					}
					le := int64(0)
					if i > 0 {
						le = 1<<uint(i) - 1
					}
					ss.Buckets = append(ss.Buckets, jsonBucket{Le: le, N: n})
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// refWriteJSON is the earlier Snapshot.WriteJSON: encoding/json, indented.
func refWriteJSON(w io.Writer, s *jsonSnap) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// refWritePrometheus is the earlier Snapshot.WritePrometheus: one fmt call
// per line, labels joined as strings.
func refWritePrometheus(w io.Writer, s *jsonSnap) error {
	labels := func(ls []Label, extra ...Label) string {
		var parts []string
		for _, l := range append(append([]Label(nil), ls...), extra...) {
			v := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(l.Value)
			parts = append(parts, l.Key+`="`+v+`"`)
		}
		if len(parts) == 0 {
			return ""
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, ss := range f.Series {
			switch f.Kind {
			case "counter":
				fmt.Fprintf(&b, "%s%s %d\n", f.Name, labels(ss.Labels), ss.Value)
			case "gauge":
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labels(ss.Labels), strconv.FormatFloat(ss.GaugeValue, 'g', -1, 64))
			default:
				cum := uint64(0)
				for _, bk := range ss.Buckets {
					cum += bk.N
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, labels(ss.Labels, Label{"le", strconv.FormatInt(bk.Le, 10)}), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, labels(ss.Labels, Label{"le", "+Inf"}), ss.Count)
				fmt.Fprintf(&b, "%s_sum%s %d\n", f.Name, labels(ss.Labels), ss.Sum)
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labels(ss.Labels), ss.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
