package device

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// routeString renders a copy's direction and legs, e.g. "DtoD: pcie0+pcie4".
func routeString(dir Direction, r Route) string {
	legs := make([]string, r.Len())
	for i := range legs {
		l := r.Leg(i)
		switch l.Kind {
		case HostLeg:
			legs[i] = "host"
		case PCIeLeg:
			legs[i] = fmt.Sprintf("pcie%d", l.Dev)
		case PeerLeg:
			legs[i] = fmt.Sprintf("peer%d>%d", l.Dev, l.Peer)
		case DeviceLeg:
			legs[i] = fmt.Sprintf("dev%d", l.Dev)
		case ShmLeg:
			legs[i] = "shm"
		}
	}
	return dir.String() + ": " + strings.Join(legs, "+")
}

// TestPlanCopyRoutes pins the leg table: for every direction on each
// preset's node, the legs PlanCopy returns with peer copies allowed and
// forbidden. Endpoints are "h" (host memory) or "dN" (memory allocated on
// device N, which is host memory on an integrated device).
func TestPlanCopyRoutes(t *testing.T) {
	cases := []struct {
		sys      *topo.System
		node     int
		dst, src string
		peer     string // route with peer copies allowed
		noPeer   string // route with peer copies forbidden
	}{
		// PSG: eight discrete GPUs, four per root complex.
		{topo.PSG(), 0, "h", "h", "HtoH: host", "HtoH: host"},
		{topo.PSG(), 0, "d2", "h", "HtoD: pcie2", "HtoD: pcie2"},
		{topo.PSG(), 0, "h", "d5", "DtoH: pcie5", "DtoH: pcie5"},
		{topo.PSG(), 0, "d1", "d1", "DtoD: dev1", "DtoD: dev1"},
		{topo.PSG(), 0, "d1", "d0", "DtoD: peer0>1", "DtoD: pcie0+pcie1"},
		{topo.PSG(), 0, "d7", "d4", "DtoD: peer4>7", "DtoD: pcie4+pcie7"},
		{topo.PSG(), 0, "d4", "d0", "DtoD: pcie0+pcie4", "DtoD: pcie0+pcie4"},
		// Titan: one discrete GPU, so a DtoD copy never leaves it.
		{topo.Titan(1), 0, "h", "h", "HtoH: host", "HtoH: host"},
		{topo.Titan(1), 0, "d0", "h", "HtoD: pcie0", "HtoD: pcie0"},
		{topo.Titan(1), 0, "h", "d0", "DtoH: pcie0", "DtoH: pcie0"},
		{topo.Titan(1), 0, "d0", "d0", "DtoD: dev0", "DtoD: dev0"},
		// Beacon: four Xeon Phis, two per root complex.
		{topo.Beacon(1), 0, "h", "h", "HtoH: host", "HtoH: host"},
		{topo.Beacon(1), 0, "d3", "h", "HtoD: pcie3", "HtoD: pcie3"},
		{topo.Beacon(1), 0, "h", "d2", "DtoH: pcie2", "DtoH: pcie2"},
		{topo.Beacon(1), 0, "d3", "d3", "DtoD: dev3", "DtoD: dev3"},
		{topo.Beacon(1), 0, "d0", "d1", "DtoD: peer1>0", "DtoD: pcie1+pcie0"},
		{topo.Beacon(1), 0, "d2", "d0", "DtoD: pcie0+pcie2", "DtoD: pcie0+pcie2"},
		// HeteroDemo: node 2 has only integrated CPU devices, whose
		// memory is host memory; node 0 mixes them with discrete GPUs on
		// different sockets.
		{topo.HeteroDemo(), 2, "h", "h", "HtoH: host", "HtoH: host"},
		{topo.HeteroDemo(), 2, "d0", "h", "HtoH: host", "HtoH: host"},
		{topo.HeteroDemo(), 2, "h", "d1", "HtoH: host", "HtoH: host"},
		{topo.HeteroDemo(), 2, "d1", "d0", "HtoH: host", "HtoH: host"},
		{topo.HeteroDemo(), 0, "d2", "d0", "DtoH: pcie0", "DtoH: pcie0"},
		{topo.HeteroDemo(), 0, "d0", "d3", "HtoD: pcie0", "HtoD: pcie0"},
		{topo.HeteroDemo(), 0, "d1", "d0", "DtoD: pcie0+pcie1", "DtoD: pcie0+pcie1"},
	}
	for _, tc := range cases {
		eng := sim.NewEngine()
		fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(tc.sys.Nodes)), tc.sys)
		rt := NewRuntime(eng, fab, tc.node)
		space := xmem.NewSpace("node", len(tc.sys.Nodes[tc.node].Devices))
		loc := func(end string) xmem.Loc {
			var addr xmem.Addr
			var err error
			if end == "h" {
				addr, err = space.AllocHost(64, false)
			} else {
				var dev int
				fmt.Sscanf(end, "d%d", &dev)
				addr, err = rt.NewContext(dev, space, -1, false, true).MemAlloc(64)
			}
			if err != nil {
				t.Fatal(err)
			}
			l, err := space.Lookup(addr)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		dst, src := loc(tc.dst), loc(tc.src)
		dir := Classify(dst, src)
		name := fmt.Sprintf("%s node %d %s<-%s", tc.sys.Name, tc.node, tc.dst, tc.src)
		if got := routeString(dir, PlanCopy(fab, tc.node, dir, dst, src, true)); got != tc.peer {
			t.Errorf("%s, peer allowed: %s, want %s", name, got, tc.peer)
		}
		if got := routeString(dir, PlanCopy(fab, tc.node, dir, dst, src, false)); got != tc.noPeer {
			t.Errorf("%s, peer forbidden: %s, want %s", name, got, tc.noPeer)
		}
	}
	if got := routeString(HtoH, ShmRoute()); got != "HtoH: shm+shm" {
		t.Errorf("legacy route = %s, want HtoH: shm+shm", got)
	}
}

// TestDeviceLegBandwidth: on-device DMA reads and writes every byte at the
// bandwidth of the device holding the memory, without holding a link.
func TestDeviceLegBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	sys := topo.HeteroDemo()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	const n = 320 << 20
	for dev, bw := range []float64{240, 320} { // hetero1: gpu0, mic0
		want := sim.Time(sim.DurFromSeconds(2 * n / (bw * 1e9)))
		for range 2 {
			if got := (Leg{Kind: DeviceLeg, Dev: dev}).Price(fab, 1, n, -1, true); got != want {
				t.Errorf("dev%d on-device copy ends at %v, want %v", dev, sim.Dur(got), sim.Dur(want))
			}
		}
	}
}
