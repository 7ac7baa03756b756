package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// labelValues mixes plain values with ones encoding/json must escape.
var labelValues = []string{"0", "1", "10", "2", "n0", `q"x`, `b\s`, "<&>", "é", " ", " ", "\x01", "\t", "\xff", ""}

// twin is one shard's registry and its reference twin, fed the same
// operations on the same advancing clock.
type twin struct {
	now  int64
	reg  *Registry
	ref  *refRegistry
	res  []*Resource
	mons []*refMonitor
	hubs []*hubRecord
}

// hubSchema is the shape of a message hub's record: totals and a backlog
// peak per node. hubRecord is one such record.
var hubSchema = NewRecordSchema(
	NewFamily("r_in_total", "record total", KindCounter, "node"),
	NewFamily("r_out_total", "record total", KindCounter, "node"),
	NewFamily("r_peak", "record peak", KindGauge, "node"),
)

type hubRecord struct {
	name string
	s    [3]Sample
}

func (r *hubRecord) Record() (*RecordSchema, string, []Sample) { return hubSchema, r.name, r.s[:] }

// addHub attaches a hub record to the twin's registry and its three
// series, at zero, to the reference.
func (tw *twin) addHub(name string) {
	rec := &hubRecord{name: name}
	tw.reg.AddRecord(rec)
	tw.hubs = append(tw.hubs, rec)
	for i, f := range hubSchema.fams {
		if i < 2 {
			tw.ref.Counter(f.name, f.help, "node", name)
		} else {
			tw.ref.Gauge(f.name, f.help, "node", name)
		}
	}
}

// countHub updates sample i of the twin's j-th hub record by v, as the hub
// does: a total adds v, the peak rises to it. The reference registry does
// the same to its series.
func (tw *twin) countHub(j, i int, v int64) {
	rec := tw.hubs[j]
	f := hubSchema.fams[i]
	if i < 2 {
		rec.s[i].Add(v, tw.now)
		tw.ref.Counter(f.name, f.help, "node", rec.name).Add(v)
		return
	}
	rec.s[i].SetMax(v, tw.now)
	setMax(tw.ref.Gauge(f.name, f.help, "node", rec.name), float64(v))
}

// newTwin applies n random operations. Series labeled with the shard are
// owned by it; the rest (rank="all" histograms, f_total{kind,node},
// z_total, resources named shared/* and the hub record shared-h) may
// appear on every shard, and resources named s<shard>/dup and hub records
// named s<shard>-h appear twice on one shard.
func newTwin(rng *rand.Rand, shard, n int) *twin {
	tw := &twin{}
	tw.reg = NewRegistry()
	tw.reg.SetClock(func() int64 { return tw.now })
	tw.ref = newRefRegistry(func() int64 { return tw.now })
	own := func() string { return fmt.Sprintf("s%d-%s", shard, labelValues[rng.IntN(len(labelValues))]) }
	names := []string{fmt.Sprintf("s%d/a", shard), fmt.Sprintf("s%d/dup", shard), fmt.Sprintf("s%d/dup", shard), "shared/x"}
	for _, name := range names[:1+rng.IntN(len(names))] {
		res := &Resource{Name: name}
		tw.reg.AddRecord(res)
		tw.res = append(tw.res, res)
		tw.mons = append(tw.mons, tw.ref.Resource(name))
	}
	hubs := []string{fmt.Sprintf("s%d-h", shard), fmt.Sprintf("s%d-h", shard), "shared-h"}
	for _, name := range hubs[:1+rng.IntN(len(hubs))] {
		tw.addHub(name)
	}
	for i := 0; i < n; i++ {
		tw.now += rng.Int64N(4)
		d := rng.Int64N(200) - 20
		switch rng.IntN(8) {
		case 0:
			node := own()
			counter(tw.reg, "c_total", "owned counter", "node", node).Add(d)
			tw.ref.Counter("c_total", "owned counter", "node", node).Add(d)
		case 1:
			kind, node := labelValues[rng.IntN(3)], labelValues[rng.IntN(4)]
			counter(tw.reg, "f_total", "shared counter", "kind", kind, "node", node).Inc()
			tw.ref.Counter("f_total", "shared counter", "kind", kind, "node", node).Inc()
		case 2:
			// Non-negative, as every gauge the simulator records: a merge
			// copies a series new to its target as it is, where the
			// reference merge raised a negative gauge to zero.
			node, v := own(), float64(max(d, 0))/8
			if rng.IntN(2) == 0 {
				gauge(tw.reg, "g_peak", "owned gauge", "node", node).Set(v)
				tw.ref.Gauge("g_peak", "owned gauge", "node", node).Set(v)
			} else {
				setMax(gauge(tw.reg, "g_peak", "owned gauge", "node", node), v)
				setMax(tw.ref.Gauge("g_peak", "owned gauge", "node", node), v)
			}
		case 3:
			rank := "all"
			if rng.IntN(2) == 0 {
				rank = own()
			}
			op := []string{"send", "recv", "wait"}[rng.IntN(3)]
			v := rng.Int64N(1<<uint(rng.IntN(40))) - 3
			histogram(tw.reg, "h_ns", "histogram", "rank", rank, "op", op).Observe(v)
			tw.ref.Histogram("h_ns", "histogram", "rank", rank, "op", op).Observe(v)
		case 4:
			counter(tw.reg, "z_total", "").Add(d)
			tw.ref.Counter("z_total", "").Add(d)
		case 5:
			tw.countHub(rng.IntN(len(tw.hubs)), rng.IntN(3), d/8)
		default:
			j := rng.IntN(len(tw.res))
			wait, occupy := max(0, rng.Int64N(60)-30), rng.Int64N(50)
			tw.res[j].Observe(tw.now, wait, occupy)
			tw.mons[j].Observe(wait, occupy)
		}
	}
	return tw
}

// writeBoth renders a registry snapshot with WriteJSON and the reference
// snapshot with encoding/json, failing the test on any difference.
func writeBoth(t *testing.T, what string, got *Snapshot, want *jsonSnap) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(&w, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: snapshot differs from the reference:\n%s\n---- want\n%s", what, g.String(), w.String())
	}
}

// TestMergeShardsMatchesKeyedMerge: per shard, merged across shards, with
// report-time gauges added after the merge, and folded twice into an
// aggregate, the registry snapshots the bytes the earlier code did.
func TestMergeShardsMatchesKeyedMerge(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		shards := make([]*twin, 1+rng.IntN(6))
		regs := make([]*Registry, len(shards))
		end := int64(0)
		for i := range shards {
			shards[i] = newTwin(rng, i, rng.IntN(80))
			regs[i] = shards[i].reg
			end = max(end, shards[i].now)
			what := fmt.Sprintf("seed %d shard %d", seed, i)
			writeBoth(t, what, regs[i].Snapshot(shards[i].now), shards[i].ref.Snapshot(shards[i].now))
		}
		merged := MergeShards(regs)
		merged.SetClock(func() int64 { return end })
		ref := shards[0].ref
		ref.clk.SetClock(func() int64 { return end })
		for _, s := range shards[1:] {
			ref.Merge(s.ref)
		}
		// Report-time gauges, in a new family and in a merged one, after a
		// first snapshot.
		writeBoth(t, fmt.Sprintf("seed %d merged", seed), merged.Snapshot(end), ref.Snapshot(end))
		for i := 0; i < 5; i++ {
			name := []string{"u_util", "g_peak"}[i%2]
			node := labelValues[rng.IntN(len(labelValues))]
			gauge(merged, name, "report-time gauge", "node", node).Set(float64(i) / 7)
			ref.Gauge(name, "report-time gauge", "node", node).Set(float64(i) / 7)
		}
		writeBoth(t, fmt.Sprintf("seed %d merged with gauges", seed), merged.Snapshot(end), ref.Snapshot(end))

		agg, refAgg := NewRegistry(), newRefRegistry(func() int64 { return 0 })
		for i := 0; i < 2; i++ {
			agg.Merge(merged)
			refAgg.Merge(ref)
			writeBoth(t, fmt.Sprintf("seed %d aggregate %d", seed, i), agg.Snapshot(0), refAgg.Snapshot(0))
		}
	}
}

// TestMergeShardsMatchesMerge: MergeShards gives the registry that merging
// the shards into a fresh registry gives, negative gauges included.
func TestMergeShardsMatchesMerge(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 29))
		regs := make([]*Registry, 2+rng.IntN(5))
		fresh := NewRegistry()
		for i := range regs {
			regs[i] = newTwin(rng, i, rng.IntN(80)).reg
			node := labelValues[rng.IntN(3)]
			gauge(regs[i], "g_peak", "owned gauge", "node", node).Set(-float64(1 + rng.IntN(9)))
			fresh.Merge(regs[i])
		}
		var got, want bytes.Buffer
		if err := MergeShards(regs).Snapshot(1).WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Snapshot(1).WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: MergeShards differs from Merge:\n%s\n---- want\n%s", seed, got.String(), want.String())
		}
	}
}

// TestWriteJSONMatchesEncoder: WriteJSON writes exactly encoding/json's
// indented bytes, and WritePrometheus the reference's text, for
// adversarial names, help strings and label values, both float formats,
// empty histograms and an empty registry; WriteJSON fails like the encoder
// on NaN and infinities.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	tw := &twin{reg: NewRegistry()}
	tw.ref = newRefRegistry(func() int64 { return tw.now })
	tw.reg.SetClock(func() int64 { return tw.now })
	sameBytes(t, "empty", tw.reg.Snapshot(-1), tw.ref.Snapshot(-1))
	for i, v := range labelValues {
		tw.now = int64(i) - 3
		name := fmt.Sprintf("c%d_total", i) // one family per key set
		counter(tw.reg, name, "", "k", v, v, "x").Add(int64(i * i))
		tw.ref.Counter(name, "", "k", v, v, "x").Add(int64(i * i))
		histogram(tw.reg, "<odd\" name>", "a \\ help\nwith  marks", "k", v).Observe(int64(i) << i)
		tw.ref.Histogram("<odd\" name>", "a \\ help\nwith  marks", "k", v).Observe(int64(i) << i)
	}
	histogram(tw.reg, "empty_ns", "no samples")
	tw.ref.Histogram("empty_ns", "no samples")
	gauges := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, 1e20, -0.5, 0.1, 1.5e300, 5e-324, 123456789, 2.5e-10}
	for i, g := range gauges {
		gauge(tw.reg, "g", "h", "i", fmt.Sprint(i)).Set(g)
		tw.ref.Gauge("g", "h", "i", fmt.Sprint(i)).Set(g)
	}
	sameBytes(t, "adversarial", tw.reg.Snapshot(7), tw.ref.Snapshot(7))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		gauge(tw.reg, "g", "h", "i", "bad").Set(bad)
		tw.ref.Gauge("g", "h", "i", "bad").Set(bad)
		var g, w bytes.Buffer
		gerr, werr := tw.reg.Snapshot(0).WriteJSON(&g), refWriteJSON(&w, tw.ref.Snapshot(0))
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() || g.Len() != 0 || w.Len() != 0 {
			t.Errorf("gauge %v: WriteJSON err %v wrote %d bytes; encoder err %v wrote %d", bad, gerr, g.Len(), werr, w.Len())
		}
	}
}

// TestResourceRecordsMatchMonitors: resource records (including two with
// one name in one registry) snapshot like the monitors they replaced.
func TestResourceRecordsMatchMonitors(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 20; i++ {
		tw := newTwin(rng, 0, 200)
		writeBoth(t, fmt.Sprintf("run %d", i), tw.reg.Snapshot(tw.now), tw.ref.Snapshot(tw.now))
	}
}
