package device

import (
	"testing"

	"impacc/internal/sim"
)

// BenchmarkStreamQueue measures a stream draining its queue on the engine:
// one op is a kernel, a host-to-device copy and a wait on another stream's
// kernel, all enqueued by a host process that syncs every 64 ops. Run it
// with
//
//	go test -run '^$' -bench StreamQueue ./internal/device/
func BenchmarkStreamQueue(b *testing.B) {
	eng, _, ctx := psgRig(0)
	host, _ := ctx.Space.AllocHost(64, true)
	dev, _ := ctx.MemAlloc(64)
	k := KernelSpec{Name: "k", FLOPs: 1e6, Kind: KindCompute}
	st, other := ctx.NewStream(1), ctx.NewStream(2)
	eng.Spawn("host", func(p *sim.Proc) {
		for i := range b.N {
			other.EnqueueKernel(k)
			st.EnqueueKernel(k)
			st.EnqueueCopy(dev, host, 64)
			st.EnqueueWaitStream(other)
			if i%64 == 63 {
				st.Sync(p)
			}
		}
		st.Sync(p)
		st.Close()
		other.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		b.Fatal(err)
	}
}
