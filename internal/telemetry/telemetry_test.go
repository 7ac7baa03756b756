package telemetry

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	now := int64(0)
	r.SetClock(func() int64 { return now })

	c := r.Counter("msgs_total", "messages", "node", "n0")
	c.Inc()
	now = 50
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	c.Add(-5) // ignored
	if c.Value() != 3 {
		t.Fatalf("counter after negative add = %d, want 3", c.Value())
	}
	// Same (name, labels) resolves to the same series.
	if r.Counter("msgs_total", "messages", "node", "n0").Value() != 3 {
		t.Fatal("re-fetched counter lost its value")
	}

	g := r.Gauge("util", "utilization")
	g.Set(0.5)
	g.SetMax(0.25)
	if g.s.fval != 0.5 {
		t.Fatalf("SetMax lowered gauge to %v", g.s.fval)
	}
	g.SetMax(0.75)
	if g.s.fval != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", g.s.fval)
	}

	snap := r.Snapshot(now)
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

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -7} {
		h.Observe(v)
	}
	ss := r.Snapshot(0).Families[0].Series[0]
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
	want := []BucketSnap{{0, 2}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}}
	if len(ss.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", ss.Buckets, want)
	}
	for i, b := range want {
		if ss.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, ss.Buckets[i], b)
		}
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+$`)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter", "node", "n0").Add(7)
	r.Gauge("b_util", "a gauge", "node", "n0", "link", "pcie0").Set(0.375)
	h := r.Histogram("c_ns", "a histogram")
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
		r.Counter("z_total", "", "k", "2").Inc()
		r.Counter("z_total", "", "k", "1").Add(5)
		r.Counter("a_total", "").Inc()
		r.Histogram("m_ns", "", "op", "send").Observe(128)
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
	r.Counter("x_total", "")
	for name, fn := range map[string]func(){
		"kind":   func() { r.Gauge("x_total", "") },
		"labels": func() { r.Counter("x_total", "", "k", "v") },
		"odd":    func() { r.Counter("y_total", "", "k") },
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
