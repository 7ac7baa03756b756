package telemetry

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
)

// The families of titanShards, declared once as the simulator declares
// its own.
var (
	copySizes = NewFamily("device_copy_bytes", "copy sizes", KindHistogram, "node", "dev", "dir")
	kernels   = NewFamily("device_kernel_duration_ns", "kernels", KindHistogram, "node", "dev", "stream")
	latencies = NewFamily("core_mpi_latency_ns", "MPI latency", KindHistogram, "rank", "op")
)

// titanShards builds n shard registries shaped like a titan:n run's: per
// node, a hub record, four copy-size and one kernel histogram, five
// MPI-latency histograms, and seven resource records.
func titanShards(n int) []*Registry {
	regs := make([]*Registry, n)
	for i := range regs {
		r := NewRegistry()
		now := int64(0)
		r.SetClock(func() int64 { now += 97; return now })
		node := fmt.Sprintf("titan%05d", i)
		hub := &hubRecord{name: node}
		hub.s[0].Add(int64(i%61), 5)
		hub.s[1].Add(int64(i%59), 7)
		hub.s[2].SetMax(2, 9)
		r.AddRecord(hub)
		for _, dir := range []string{"DtoD", "DtoH", "HtoD", "HtoH"} {
			r.Histogram(copySizes, node, "0", dir).Observe(int64(i) << 10)
		}
		r.Histogram(kernels, node, "0", "0").Observe(70_000)
		for _, op := range []string{"allreduce", "bcast", "irecv", "isend", "wait"} {
			r.Histogram(latencies, fmt.Sprint(i), op).Observe(int64(6802 + i))
		}
		for _, link := range []string{"dev0", "handler", "inter", "membus", "nic-in", "nic-out", "pcie0"} {
			res := &Resource{Name: node + "/" + link}
			res.Observe(now, int64(i%3), 1000)
			r.AddRecord(res)
		}
		regs[i] = r
	}
	return regs
}

// mergedSink keeps the benchmarked merge from being optimized away.
var mergedSink *Registry

// BenchmarkRunMetricsMerge merges the 512 shard registries of a
// titan:512-shaped run, as Runtime.Metrics does at run end.
func BenchmarkRunMetricsMerge(b *testing.B) {
	regs := titanShards(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergedSink = MergeShards(regs)
	}
}

// BenchmarkSnapshotWriteJSON snapshots a merged titan:512-shaped registry
// and writes it as indented JSON.
func BenchmarkSnapshotWriteJSON(b *testing.B) {
	snap := MergeShards(titanShards(512)).Snapshot(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snap.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// observed is the record BenchmarkResourceObserve updates; package-level so
// the stores are kept.
var observed Resource

// BenchmarkResourceObserve records one occupation of a resource, the work
// every FIFOResource use adds for telemetry.
func BenchmarkResourceObserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		observed.Observe(int64(i), int64(i&7), 100)
	}
}

// BenchmarkHistogramObserve records one sample per op into 32768 histogram
// series visited in a fixed scrambled order, so the working set exceeds a
// 2 MiB L2 and every sample pays for the state it touches, as the per-node
// and per-rank histograms of a large run do. Even series take samples of
// one magnitude, as a copy-size histogram does; odd ones spread over eight
// buckets, as an MPI latency histogram does.
func BenchmarkHistogramObserve(b *testing.B) {
	const n = 1 << 15
	r := NewRegistry()
	now := int64(0)
	r.SetClock(func() int64 { return now })
	f := NewFamily("bench_ns", "benchmark histogram", KindHistogram, "node", "dev")
	hs := make([]*Histogram, n)
	for i := range hs {
		hs[i] = r.Histogram(f, fmt.Sprintf("n%05d", i>>3), fmt.Sprint(i&7))
	}
	order := rand.New(rand.NewPCG(1, 2)).Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := order[i&(n-1)]
		v := int64(4096 + j)
		if j&1 != 0 {
			v = 1000 << (i & 7)
		}
		now = int64(i)
		hs[j].Observe(v)
	}
}
