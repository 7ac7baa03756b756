package msg

import (
	"runtime"
	"testing"

	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// registerNode builds what a run builds per node in the node's engine,
// each registering its telemetry there: the message hub (one record), a
// device context (four copy-size histograms) and one activity queue (a
// kernel-duration histogram).
func registerNode(eng *sim.Engine, fab *topo.Fabric, node int) *device.Stream {
	NewHub(eng, fab, node, impaccCfg(), xmem.NewHeapTable())
	sp := xmem.NewSpace(fab.Sys.Nodes[node].Name, len(fab.Sys.Nodes[node].Devices))
	return device.NewRuntime(eng, fab, node).NewContext(0, sp, 0, true, true).NewStream(1)
}

// nodeBytes returns the heap bytes registering node 1 of a two-node
// system costs its own fresh engine, after node 0 registered on another,
// so every family the node registers already has its descriptor.
func nodeBytes(t testing.TB) uint64 {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	fab := topo.NewShardedFabric(engs, topo.Titan(2))
	streams := []*device.Stream{registerNode(engs[0], fab, 0)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streams = append(streams, registerNode(engs[1], fab, 1))
	runtime.ReadMemStats(&after)
	for i, s := range streams {
		s.Close()
		if err := sim.NewShardGroup(engs[i:i+1], 0, 1).Run(); err != nil {
			t.Fatal(err)
		}
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestRegisterNodeBytes bounds what a node costs at set-up, which is
// mostly telemetry: the hub's ten counters and peaks are one record inside
// the hub, the families' descriptors are shared by every registry of the
// process, and a counter or gauge is one series object. A Titan node costs
// about 3.9 KB so; when every registry built its own descriptors and the
// hub registered ten series with a handle each, it cost about 7.5 KB.
func TestRegisterNodeBytes(t *testing.T) {
	most := uint64(0)
	for range 3 {
		most = max(most, nodeBytes(t))
	}
	t.Logf("registering a node's hub, context and stream allocates %d B", most)
	if most > 5000 {
		t.Errorf("registering a node's hub, context and stream allocates %d B, want at most 5000", most)
	}
}

// BenchmarkRegisterNode measures setting up one node's hub, device
// context and stream on its own fresh engine; allocs/op and B/op are the
// set-up cost a run pays per node.
func BenchmarkRegisterNode(b *testing.B) {
	sys := topo.Titan(1)
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		eng := sim.NewEngine()
		fab := topo.NewShardedFabric([]*sim.Engine{eng}, sys)
		b.StartTimer()
		s := registerNode(eng, fab, 0)
		b.StopTimer()
		s.Close()
		if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
