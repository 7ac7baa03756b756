package telemetry

import (
	"fmt"
	"io"
	"testing"
)

// titanShards builds n shard registries shaped like a titan:n run's: per
// node, ten msg counters and gauges, four copy-size and one kernel
// histogram, five MPI-latency histograms, and seven resource records.
func titanShards(n int) []*Registry {
	regs := make([]*Registry, n)
	for i := range regs {
		r := NewRegistry()
		now := int64(0)
		r.SetClock(func() int64 { now += 97; return now })
		node := fmt.Sprintf("titan%05d", i)
		for _, name := range []string{"aliases", "fused_copies", "intra_msgs", "legacy_copies", "net_in", "net_out", "rdma_direct", "staged"} {
			r.Counter("msg_"+name+"_total", "hub counter", "node", node).Add(int64(i % 61))
		}
		r.Gauge("msg_intra_queue_peak", "hub peak", "node", node).SetMax(1)
		r.Gauge("msg_pending_net_peak", "hub peak", "node", node).SetMax(2)
		for _, dir := range []string{"DtoD", "DtoH", "HtoD", "HtoH"} {
			r.Histogram("device_copy_bytes", "copy sizes", "node", node, "dev", "0", "dir", dir).Observe(int64(i) << 10)
		}
		r.Histogram("device_kernel_duration_ns", "kernels", "node", node, "dev", "0", "stream", "0").Observe(70_000)
		for _, op := range []string{"allreduce", "bcast", "irecv", "isend", "wait"} {
			r.Histogram("core_mpi_latency_ns", "MPI latency", "rank", fmt.Sprint(i), "op", op).Observe(int64(6802 + i))
		}
		for _, link := range []string{"dev0", "handler", "inter", "membus", "nic-in", "nic-out", "pcie0"} {
			res := &Resource{Name: node + "/" + link}
			res.Observe(now, int64(i%3), 1000)
			r.AddResource(res)
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
