package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzRegistry decodes bytes into counter, gauge, histogram, resource and
// hub record operations on 1–8 shard registries, each fed in step with a reference
// twin (reference_test.go), and requires three routes to one registry to
// write identical JSON and Prometheus bytes: MergeShards, a Merge of
// every shard into a fresh registry, and the reference's own keyed merge,
// which it writes with encoding/json and a Prometheus writer of its own.
// Each shard's snapshot, report-time gauges set after the merge, two
// sweep-style Merges of the merged registry into an aggregate, and a Merge
// into the MergeShards result itself are checked the same way, and each of
// these registries must hold every family's series in strictly ascending
// key order before it is snapshotted.
//
// The input is one shard-count byte, then 4-byte operations (op, shard, a,
// b); see applyOp. Gauges stay non-negative, as every gauge the simulator
// records does: Merge copies a series new to its target as it is, where the
// reference raises a negative gauge to zero. Resource waits stay far below
// 2^53 ns, where the reference's float64 peak gauge still tells every
// int64 peak apart.
//
// Seeds in testdata/fuzz/FuzzRegistry: merged-peak-stamp has two shards
// hold a resource of one name, shard 0 reaching the larger peak first, so
// the merged peak keeps shard 0's value and shard 1's later stamp, where
// folding both shards' records as one registry's would keep shard 0's
// stamp; shard-dup-peak has one shard hold two records of one name that
// reach one peak at different times; extreme-values feeds the extreme
// samples and deltas to shared and owned series; hub-records has two
// shards hold a hub record of one name, and one shard two of its own
// name, whose totals add and whose peaks tie.
func FuzzRegistry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkRegistryOps(t, data)
	})
}

// Decoded value tables: deltas and samples include zero, negatives and the
// int64 extremes, so sums wrap the same way on every route.
var (
	fuzzDeltas  = []int64{0, -3, 1, 5, 1 << 20, 1 << 62, math.MaxInt64}
	fuzzSamples = []int64{0, -1, math.MinInt64, 1, 3, 1000, 1 << 40, 1 << 62, math.MaxInt64}
)

// applyOp applies one decoded operation to shard i's twin. Labels named
// s<i>-... are owned by the shard; rank="all" histograms, f_total, z_total,
// shared g_peak nodes, resources named shared/x and hub records named
// shared-h appear on any shard. A shard may hold two hub records of its
// own name.
func applyOp(tw *twin, i int, op, a, b byte) {
	own := fmt.Sprintf("s%d-%s", i, labelValues[int(a)%len(labelValues)])
	delta := fuzzDeltas[int(b)%len(fuzzDeltas)] + int64(b)/int64(len(fuzzDeltas))
	switch op % 10 {
	case 0:
		tw.now += int64(a) << (b % 24)
	case 1:
		counter(tw.reg, "c_total", "owned counter", "node", own).Add(delta)
		tw.ref.Counter("c_total", "owned counter", "node", own).Add(delta)
	case 2:
		kind, node := labelValues[int(a)%3], labelValues[int(b)%4]
		counter(tw.reg, "f_total", "shared counter", "kind", kind, "node", node).Add(delta)
		tw.ref.Counter("f_total", "shared counter", "kind", kind, "node", node).Add(delta)
	case 3:
		node := own
		if a&2 != 0 {
			node = labelValues[int(a>>2)%3]
		}
		v := float64(b) / 8
		if a&1 == 0 {
			gauge(tw.reg, "g_peak", "gauge", "node", node).Set(v)
			tw.ref.Gauge("g_peak", "gauge", "node", node).Set(v)
		} else {
			setMax(gauge(tw.reg, "g_peak", "gauge", "node", node), v)
			setMax(tw.ref.Gauge("g_peak", "gauge", "node", node), v)
		}
	case 4:
		rank := "all"
		if a&1 != 0 {
			rank = own
		}
		op := []string{"send", "recv", "wait"}[int(a>>1)%3]
		v := fuzzSamples[int(b)%len(fuzzSamples)]
		if b&0x80 != 0 {
			v = int64(b&0x7f) << (a % 48)
		}
		histogram(tw.reg, "h_ns", "histogram", "rank", rank, "op", op).Observe(v)
		tw.ref.Histogram("h_ns", "histogram", "rank", rank, "op", op).Observe(v)
	case 5:
		name := []string{fmt.Sprintf("s%d/a", i), fmt.Sprintf("s%d/dup", i), fmt.Sprintf("s%d/dup", i), "shared/x"}[a%4]
		res := &Resource{Name: name}
		tw.reg.AddRecord(res)
		tw.res = append(tw.res, res)
		tw.mons = append(tw.mons, tw.ref.Resource(name))
	case 6:
		if len(tw.res) == 0 {
			return
		}
		j, scale := int(a)%len(tw.res), int64(1)<<(a>>4)
		wait, occupy := (int64(b>>3)-2)*scale, (int64(b&7)-1)*scale
		tw.res[j].Observe(tw.now, wait, occupy)
		tw.mons[j].Observe(wait, occupy)
	case 7:
		counter(tw.reg, "z_total", "").Add(delta)
		tw.ref.Counter("z_total", "").Add(delta)
	case 8:
		tw.addHub([]string{fmt.Sprintf("s%d-h", i), "shared-h"}[a%4/3])
	default:
		if len(tw.hubs) > 0 {
			tw.countHub(int(a)%len(tw.hubs), int(b)%3, int64(b>>2)-1)
		}
	}
}

// checkRegistryOps decodes data and checks every route's bytes.
func checkRegistryOps(t *testing.T, data []byte) {
	shards := make([]*twin, 1+int(data[0])%8)
	for i := range shards {
		tw := &twin{reg: NewRegistry()}
		tw.reg.SetClock(func() int64 { return tw.now })
		tw.ref = newRefRegistry(func() int64 { return tw.now })
		shards[i] = tw
	}
	ops := data[1:]
	for n := 0; len(ops) >= 4 && n < 512; n, ops = n+1, ops[4:] {
		i := int(ops[1]) % len(shards)
		applyOp(shards[i], i, ops[0], ops[2], ops[3])
	}

	regs := make([]*Registry, len(shards))
	end := int64(0)
	for i, tw := range shards {
		regs[i] = tw.reg
		end = max(end, tw.now)
		keysAscend(t, fmt.Sprintf("shard %d", i), tw.reg)
		sameBytes(t, fmt.Sprintf("shard %d", i), tw.reg.Snapshot(tw.now), tw.ref.Snapshot(tw.now))
	}
	clock := func() int64 { return end }
	merged, fresh, ref := MergeShards(regs), NewRegistry(), newRefRegistry(clock)
	for _, tw := range shards {
		fresh.Merge(tw.reg)
		ref.Merge(tw.ref)
	}
	merged.SetClock(clock)
	fresh.SetClock(clock)
	check := func(what string) {
		keysAscend(t, what+": MergeShards", merged)
		keysAscend(t, what+": Merge", fresh)
		want := ref.Snapshot(end)
		sameBytes(t, what+": MergeShards", merged.Snapshot(end), want)
		sameBytes(t, what+": Merge", fresh.Snapshot(end), want)
	}
	check("merged")
	// Report-time gauges, in a new family and in a merged one.
	for k, b := range data[:min(len(data), 4)] {
		name, node := []string{"u_util", "g_peak"}[k%2], labelValues[int(b)%len(labelValues)]
		for _, g := range []*Gauge{gauge(merged, name, "report-time gauge", "node", node),
			gauge(fresh, name, "report-time gauge", "node", node), ref.Gauge(name, "report-time gauge", "node", node)} {
			g.Set(float64(b) / 7)
		}
	}
	check("merged with gauges")
	agg, aggFresh, refAgg := NewRegistry(), NewRegistry(), newRefRegistry(func() int64 { return 0 })
	for k := 0; k < 2; k++ {
		agg.Merge(merged)
		aggFresh.Merge(fresh)
		refAgg.Merge(ref)
		keysAscend(t, fmt.Sprintf("aggregate %d of MergeShards", k), agg)
		keysAscend(t, fmt.Sprintf("aggregate %d of Merge", k), aggFresh)
		want := refAgg.Snapshot(0)
		sameBytes(t, fmt.Sprintf("aggregate %d of MergeShards", k), agg.Snapshot(0), want)
		sameBytes(t, fmt.Sprintf("aggregate %d of Merge", k), aggFresh.Snapshot(0), want)
	}
	// A Merge into the result of MergeShards, which holds resource records.
	merged.Merge(fresh)
	keysAscend(t, "Merge into MergeShards", merged)
	sameBytes(t, "Merge into MergeShards", merged.Snapshot(0), refAgg.Snapshot(0))
}

// keysAscend fails the test unless every family of r holds its series in
// strictly ascending key order, the order lookups bisect and snapshots
// write.
func keysAscend(t *testing.T, what string, r *Registry) {
	t.Helper()
	for _, f := range r.families {
		for i := 1; i < len(f.series); i++ {
			if a, b := f.series[i-1].key, f.series[i].key; a >= b {
				t.Fatalf("%s: family %s holds key %q before %q", what, f.name, a, b)
			}
		}
	}
}

// sameBytes fails the test unless got writes the same JSON as the
// reference snapshot does through encoding/json, and the same Prometheus
// text as the reference's own writer.
func sameBytes(t *testing.T, what string, got *Snapshot, want *jsonSnap) {
	t.Helper()
	writeBoth(t, what, got, want)
	var g, w bytes.Buffer
	if err := got.WritePrometheus(&g); err != nil {
		t.Fatal(err)
	}
	if err := refWritePrometheus(&w, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: Prometheus text differs from the reference:\n%s\n---- want\n%s", what, g.String(), w.String())
	}
}
