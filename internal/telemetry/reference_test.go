package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file keeps the registry's earlier code paths as references for the
// equivalence tests: series registered through label pairs joined into a map
// key, a keyed Merge that registers every source series again, resource
// monitors registered as four series each, a Snapshot that sorts joined
// keys, and encoding/json for WriteJSON. The metric handles are shared with
// the registry: a reference series is mutated through a Counter, Gauge or
// Histogram whose registry only supplies the clock.

type refRegistry struct {
	clk      *Registry // clock source for the shared handles
	families map[string]*refFamily
	names    []string
}

type refFamily struct {
	name, help string
	kind       Kind
	keys       []string
	series     map[string]*series
	order      []string
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

func (r *refRegistry) get(name, help string, kind Kind, kv []string) *series {
	keys, values := refLabelPairs(kv)
	f, ok := r.families[name]
	if !ok {
		f = &refFamily{name: name, help: help, kind: kind, keys: keys, series: map[string]*series{}}
		r.families[name] = f
		r.names = append(r.names, name)
	} else if f.kind != kind || strings.Join(f.keys, ",") != strings.Join(keys, ",") {
		panic("telemetry: schema mismatch for " + name)
	}
	k := strings.Join(values, "\x1f")
	s, ok := f.series[k]
	if !ok {
		s = &series{values: values}
		if kind == KindHistogram {
			s.h = new(hist)
		}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	return s
}

func (r *refRegistry) Counter(name, help string, kv ...string) *Counter {
	return &Counter{r: r.clk, s: r.get(name, help, KindCounter, kv)}
}

func (r *refRegistry) Gauge(name, help string, kv ...string) *Gauge {
	return &Gauge{r: r.clk, s: r.get(name, help, KindGauge, kv)}
}

func (r *refRegistry) Histogram(name, help string, kv ...string) *Histogram {
	return &Histogram{r: r.clk, s: r.get(name, help, KindHistogram, kv)}
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
	m.peak.SetMax(float64(waitNs))
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
			mergeSeries(r.get(name, sf.help, sf.kind, kv), ss, sf.kind)
		}
	}
}

func (r *refRegistry) Snapshot(atNs int64) *Snapshot {
	snap := &Snapshot{AtNs: atNs, Families: []FamilySnap{}}
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind.String()}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnap{LastNs: s.lastNs}
			for i, key := range f.keys {
				ss.Labels = append(ss.Labels, Label{Key: key, Value: s.values[i]})
			}
			switch f.kind {
			case KindCounter:
				ss.Value = s.ival
			case KindGauge:
				ss.GaugeValue = s.fval
			default:
				ss.Count, ss.Sum, ss.Min, ss.Max = s.h.count, s.h.sum, s.h.min, s.h.max
				for i, n := range s.h.buckets {
					if n == 0 {
						continue
					}
					le := int64(0)
					if i > 0 {
						le = 1<<uint(i) - 1
					}
					ss.Buckets = append(ss.Buckets, BucketSnap{Le: le, N: n})
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// refWriteJSON is the earlier Snapshot.WriteJSON.
func refWriteJSON(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}
