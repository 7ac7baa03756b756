package telemetry

import (
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	now := int64(0)
	r.SetClock(func() int64 { return now })

	c := counter(r, "msgs_total", "messages", "node", "n0")
	c.Inc()
	now = 50
	c.Add(2)
	if c.v != 3 {
		t.Fatalf("counter = %d, want 3", c.v)
	}
	c.Add(-5) // ignored
	if c.v != 3 {
		t.Fatalf("counter after negative add = %d, want 3", c.v)
	}
	// Same (name, labels) resolves to the same series.
	if counter(r, "msgs_total", "messages", "node", "n0").v != 3 {
		t.Fatal("re-fetched counter lost its value")
	}

	g := gauge(r, "util", "utilization")
	g.Set(0.5)
	g.Set(0.25)
	if v := (*series)(g).gauge(); v != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", v)
	}

	snap := decode(t, r.Snapshot(now))
	if snap.AtNs != 50 {
		t.Fatalf("snapshot at %d, want 50", snap.AtNs)
	}
	f := snap.Families[0]
	if f.Name != "msgs_total" || f.Series[0].Value != 3 || f.Series[0].LastNs != 50 {
		t.Fatalf("counter family snapshot = %+v", f)
	}
	if l := f.Series[0].Labels; len(l) != 1 || l[0] != (Label{"node", "n0"}) {
		t.Fatalf("labels = %+v", l)
	}
}

// decode writes s as JSON and decodes it.
func decode(t *testing.T, s *Snapshot) *jsonSnap {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := &jsonSnap{}
	if err := json.Unmarshal(b.Bytes(), out); err != nil {
		t.Fatal(err)
	}
	return out
}

// buckets returns h's occupied buckets.
func buckets(h *hist) []jsonBucket {
	var out []jsonBucket
	for j, n := range h.b {
		if n != 0 {
			out = append(out, jsonBucket{h.le(j), n})
		}
	}
	return out
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := histogram(r, "lat_ns", "latency")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -7} {
		h.Observe(v)
	}
	ss := decode(t, r.Snapshot(0)).Families[0].Series[0]
	if ss.Count != 7 {
		t.Fatalf("count = %d, want 7", ss.Count)
	}
	if ss.Sum != 1010 {
		t.Fatalf("sum = %d, want 1010", ss.Sum)
	}
	if ss.Min != 0 || ss.Max != 1000 {
		t.Fatalf("min/max = %d/%d", ss.Min, ss.Max)
	}
	// Expected buckets: le=0 -> {0, -7}, le=1 -> {1}, le=3 -> {2, 3},
	// le=7 -> {4}, le=1023 -> {1000}.
	want := []jsonBucket{{0, 2}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}}
	if len(ss.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", ss.Buckets, want)
	}
	for i, b := range want {
		if ss.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, ss.Buckets[i], b)
		}
	}
}

// TestHistogramWidenAndMerge: the stored bucket range widens downward and
// upward as samples arrive, and a merge of histograms whose ranges do not
// overlap, in either order, keeps every bucket.
func TestHistogramWidenAndMerge(t *testing.T) {
	r := NewRegistry()
	hi, lo := histogram(r, "a_ns", ""), histogram(r, "b_ns", "")
	for _, v := range []int64{1000, 4, 0, 1 << 40} { // 1023, then down, then up
		hi.Observe(v)
	}
	lo.Observe(2)
	lo.Observe(1)
	wantHi := []jsonBucket{{0, 1}, {7, 1}, {1023, 1}, {1<<41 - 1, 1}}
	wantLo := []jsonBucket{{1, 1}, {3, 1}}
	check := func(what string, h *Histogram, count uint64, sum, min, max int64, want []jsonBucket) {
		t.Helper()
		if got := buckets(&h.hist); !slices.Equal(got, want) {
			t.Errorf("%s: buckets = %v, want %v", what, got, want)
		}
		if h.count() != count || h.sum != sum || h.min != min || h.max != max {
			t.Errorf("%s: count/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d",
				what, h.count(), h.sum, h.min, h.max, count, sum, min, max)
		}
	}
	check("widened", hi, 4, 1004+1<<40, 0, 1<<40, wantHi)
	check("ascending", lo, 2, 3, 1, 2, wantLo)
	all := []jsonBucket{{0, 1}, {1, 1}, {3, 1}, {7, 1}, {1023, 1}, {1<<41 - 1, 1}}
	for _, pair := range [][2]*Histogram{{hi, lo}, {lo, hi}} {
		m := &Histogram{r: r}
		m.merge(&pair[0].hist)
		m.merge(&pair[1].hist)
		check("merged", m, 6, 1007+1<<40, 0, 1<<40, all)
	}
	// Disjoint ranges: the lower one merged into the higher one widens it
	// downward past a gap, and the higher into the lower upward.
	up, down := &Histogram{r: r}, &Histogram{r: r}
	up.merge(&lo.hist)
	up.Observe(1 << 50)
	down.Observe(1 << 50)
	down.merge(&lo.hist)
	want := []jsonBucket{{1, 1}, {3, 1}, {1<<51 - 1, 1}}
	check("up", up, 3, 3+1<<50, 1, 1<<50, want)
	check("down", down, 3, 3+1<<50, 1, 1<<50, want)
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+$`)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	counter(r, "a_total", "a counter", "node", "n0").Add(7)
	gauge(r, "b_util", "a gauge", "node", "n0", "link", "pcie0").Set(0.375)
	h := histogram(r, "c_ns", "a histogram")
	h.Observe(3)
	h.Observe(900)

	var buf bytes.Buffer
	if err := r.Snapshot(42).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var samples int
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		if !promLine.MatchString(line) {
			t.Errorf("malformed Prometheus line: %q", line)
		}
	}
	// a_total, b_util, two c_ns buckets + +Inf + sum + count.
	if samples != 7 {
		t.Fatalf("got %d samples:\n%s", samples, out)
	}
	for _, want := range []string{
		`a_total{node="n0"} 7`,
		`b_util{node="n0",link="pcie0"} 0.375`,
		`c_ns_bucket{le="3"} 1`,
		`c_ns_bucket{le="1023"} 2`, // cumulative
		`c_ns_bucket{le="+Inf"} 2`,
		`c_ns_sum 903`,
		`c_ns_count 2`,
		"# TYPE c_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	build := func() *bytes.Buffer {
		r := NewRegistry()
		// Insert in an order that differs from sorted order.
		counter(r, "z_total", "", "k", "2").Inc()
		counter(r, "z_total", "", "k", "1").Add(5)
		counter(r, "a_total", "").Inc()
		histogram(r, "m_ns", "", "op", "send").Observe(128)
		var buf bytes.Buffer
		if err := r.Snapshot(9).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\n----\n%s", a, b)
	}
	// Families sorted by name, series by label value.
	var got struct {
		Families []struct {
			Name   string `json:"name"`
			Series []struct {
				Value int64 `json:"value"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(a.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Families[0].Name != "a_total" || got.Families[2].Name != "z_total" {
		t.Fatalf("families not sorted: %+v", got.Families)
	}
	if got.Families[2].Series[0].Value != 5 {
		t.Fatalf("series not sorted by label value: %+v", got.Families[2].Series)
	}
}

func TestSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	x := NewFamily("x_total", "", KindCounter)
	r.Counter(x)
	for name, fn := range map[string]func(){
		"kind":      func() { r.Gauge(x) },
		"same-name": func() { r.Gauge(NewFamily("x_total", "", KindGauge)) },
		"labels":    func() { r.Counter(NewFamily("x_total", "", KindCounter, "k"), "v") },
		"values":    func() { r.Counter(NewFamily("y_total", "", KindCounter, "k")) },
		"separator": func() { r.Counter(NewFamily("z_total", "", KindCounter, "k"), "a\x1fb") },
		"record":    func() { NewRecordSchema(NewFamily("h_ns", "", KindHistogram, "node")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRegistriesShareFamilies: a registry holds only series state; every
// registry that registers a family reads the family's one descriptor.
func TestRegistriesShareFamilies(t *testing.T) {
	lat := NewFamily("lat_ns", "latency", KindHistogram, "rank", "op")
	msgs := NewFamily("msgs_total", "messages", KindCounter, "node")
	regs := []*Registry{NewRegistry(), NewRegistry()}
	for _, r := range regs {
		r.Histogram(lat, "0", "send")
		r.Counter(msgs, "n0").Inc()
		r.AddRecord(&Resource{Name: "n0/pcie0"})
	}
	for i, r := range regs {
		if len(r.families) != 2 || r.families[0].Family != lat || r.families[1].Family != msgs {
			t.Fatalf("registry %d does not read the shared descriptors", i)
		}
	}
	m := MergeShards(regs)
	for _, f := range m.families {
		if f.Family != lat && f.Family != msgs {
			t.Fatalf("merged family %s has a descriptor of its own", f.name)
		}
	}
}

// familyOf returns a family of the given kind whose label keys are the keys
// of the "k1, v1, ..." list kv, and kv's values: the schema a test names
// inline, as the reference registry takes it.
func familyOf(name, help string, kind Kind, kv []string) (*Family, []string) {
	keys, values := refLabelPairs(kv)
	return NewFamily(name, help, kind, keys...), values
}

// counter, gauge and histogram register a series of a family named inline.
func counter(r *Registry, name, help string, kv ...string) *Counter {
	f, values := familyOf(name, help, KindCounter, kv)
	return r.Counter(f, values...)
}

func gauge(r *Registry, name, help string, kv ...string) *Gauge {
	f, values := familyOf(name, help, KindGauge, kv)
	return r.Gauge(f, values...)
}

// setMax raises g to v if v exceeds its value, as a peak gauge does.
func setMax(g *Gauge, v float64) {
	if v > (*series)(g).gauge() {
		g.Set(v)
	}
}

func histogram(r *Registry, name, help string, kv ...string) *Histogram {
	f, values := familyOf(name, help, KindHistogram, kv)
	return r.Histogram(f, values...)
}
