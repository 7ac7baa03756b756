package topo

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

func TestTable1Presets(t *testing.T) {
	psg := PSG()
	if got := len(psg.Nodes); got != 1 {
		t.Fatalf("PSG nodes = %d, want 1 (paper uses 1 of 16)", got)
	}
	if got := len(psg.Nodes[0].Devices); got != 8 {
		t.Fatalf("PSG devices = %d, want 8 GK210", got)
	}
	if psg.Nodes[0].Devices[0].Class != NVIDIAGPU {
		t.Fatal("PSG device class must be NVIDIA GPU")
	}
	if cores := psg.Nodes[0].Sockets[0].Cores + psg.Nodes[0].Sockets[1].Cores; cores != 32 {
		t.Fatalf("PSG cores = %d, want 32", cores)
	}

	bea := Beacon(32)
	if got := len(bea.Nodes); got != 32 {
		t.Fatalf("Beacon nodes = %d, want 32", got)
	}
	if got := len(bea.Nodes[0].Devices); got != 4 {
		t.Fatalf("Beacon devices per node = %d, want 4 Xeon Phi", got)
	}
	if bea.Nodes[0].Devices[0].Class != XeonPhi {
		t.Fatal("Beacon device class must be Xeon Phi")
	}

	ti := Titan(8192)
	if got := len(ti.Nodes); got != 8192 {
		t.Fatalf("Titan nodes = %d, want 8192", got)
	}
	if got := len(ti.Nodes[0].Devices); got != 1 {
		t.Fatalf("Titan devices per node = %d, want 1 K20X", got)
	}
	if !ti.Nodes[0].NIC.RDMA {
		t.Fatal("Titan NIC must be RDMA-capable (GPUDirect RDMA)")
	}
	if ti.Nodes[0].NUMAPenalty != 1.0 {
		t.Fatal("single-socket Titan node must have no NUMA penalty")
	}
}

func TestClassMask(t *testing.T) {
	m := MaskOf(NVIDIAGPU, XeonPhi)
	if !m.Has(NVIDIAGPU) || !m.Has(XeonPhi) {
		t.Fatal("mask missing selected classes")
	}
	if m.Has(CPUAccel) {
		t.Fatal("mask should not select CPUAccel")
	}
	var def ClassMask
	for c := NVIDIAGPU; c <= CPUAccel; c++ {
		if !def.Has(c) {
			t.Fatalf("default mask must select everything, missing %v", c)
		}
	}
	if s := m.String(); s != "nvidia|xeonphi" {
		t.Fatalf("mask string = %q", s)
	}
	if def.String() != "default" {
		t.Fatalf("default mask string = %q", def.String())
	}
}

func TestTotalDevicesWithMask(t *testing.T) {
	sys := HeteroDemo()
	// Figure 2: node0 = 2 GPU + 2 CPU, node1 = 1 GPU + 2 Phi + 2 CPU,
	// node2 = 2 CPU.
	cases := []struct {
		mask ClassMask
		want int
	}{
		{0, 11},                         // acc_device_default: everything
		{MaskOf(NVIDIAGPU), 3},          // acc_device_nvidia
		{MaskOf(CPUAccel), 6},           // acc_device_cpu
		{MaskOf(XeonPhi), 2},            // acc_device_xeonphi
		{MaskOf(NVIDIAGPU, XeonPhi), 5}, // nvidia|xeonphi
	}
	for _, c := range cases {
		if got := countDevices(sys, c.mask); got != c.want {
			t.Errorf("devices selected by %v = %d, want %d", c.mask, got, c.want)
		}
	}
}

// countDevices counts sys's devices that mask selects.
func countDevices(sys *System, mask ClassMask) int {
	n := 0
	for i := range sys.Nodes {
		for _, d := range sys.Nodes[i].Devices {
			if mask.Has(d.Class) {
				n++
			}
		}
	}
	return n
}

// TestDeviceAffinityAndSysfs: PSG's devices 0-3 sit near socket 0 and 4-7
// near socket 1, the affinity the real runtime reads from sysfs and the
// simulated one from DeviceSpec.Socket (paper §3.3).
func TestDeviceAffinityAndSysfs(t *testing.T) {
	node := &PSG().Nodes[0]
	for d, dev := range node.Devices {
		if want := d / 4; dev.Socket != want {
			t.Fatalf("PSG dev%d socket = %d, want %d", d, dev.Socket, want)
		}
	}
}

func TestSameRootComplex(t *testing.T) {
	node := &PSG().Nodes[0]
	if !node.SameRootComplex(0, 3) {
		t.Fatal("PSG devices 0 and 3 share socket 0")
	}
	if node.SameRootComplex(0, 4) {
		t.Fatal("PSG devices 0 and 4 are on different sockets")
	}
	h := &HeteroDemo().Nodes[2]
	if h.SameRootComplex(0, 1) {
		t.Fatal("integrated CPU accelerators never share a PCIe root complex")
	}
}

func TestLinkSpecTime(t *testing.T) {
	l := LinkSpec{Latency: 1000, GBs: 10, SWOverhead: 500}
	if got := l.Occupy(0); got != 0 {
		t.Fatalf("zero-byte occupancy = %v, want 0", got)
	}
	// 10 GiB at 10 GB/s is about 1.07 s; the fixed costs do not occupy.
	if got := l.Occupy(10 << 30); got < sim.Second || got > sim.Second+sim.Second/10 {
		t.Fatalf("10GiB occupancy = %v, want ~1.07s", got)
	}
	if l.Occupy(-5) != l.Occupy(0) {
		t.Fatal("negative sizes must clamp to zero")
	}
}

func TestFabricHostCopy(t *testing.T) {
	eng := sim.NewEngine()
	f := NewShardedFabric([]*sim.Engine{eng}, PSG())
	var end sim.Time
	eng.Spawn("t", func(p *sim.Proc) {
		p.SleepUntil(f.HostCopyAsync(0, 1<<30))
		end = p.Now()
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	// 1 GiB at 11 GB/s ~ 97.6ms.
	want := 1 << 30 / 11.0 // ns per byte * bytes = ns
	if got := float64(end); got < want*0.99 || got > want*1.05 {
		t.Fatalf("1GiB host copy = %v, want ~97.6ms", sim.Dur(end))
	}
}

// TestRecordUtilization: each link's gauge is its busy time over the
// elapsed time, clamped to 1, and a run with no elapsed time records none.
func TestRecordUtilization(t *testing.T) {
	f := NewShardedFabric([]*sim.Engine{sim.NewEngine()}, PSG())
	f.Node(0).MemBus.UseAsync(250)
	for _, c := range []struct {
		elapsed sim.Dur
		want    float64
	}{{1000, 0.25}, {100, 1}} {
		reg := telemetry.NewRegistry()
		f.RecordUtilization(reg, c.elapsed)
		var got float64 = -1
		reg.Snapshot(0).Values(func(series string, _ int64, v float64) {
			if strings.HasPrefix(series, LinkUtilization+"{") && strings.HasSuffix(series, ",link=membus}") {
				got = v
			}
		})
		if got != c.want {
			t.Errorf("membus utilization over %v = %v, want %v", c.elapsed, got, c.want)
		}
	}
	reg := telemetry.NewRegistry()
	f.RecordUtilization(reg, 0)
	if n := reg.Snapshot(0).NumFamilies(); n != 0 {
		t.Fatalf("zero elapsed recorded %d gauge families", n)
	}
}

func TestFabricNUMAPenalty(t *testing.T) {
	eng := sim.NewEngine()
	f := NewShardedFabric([]*sim.Engine{eng}, PSG())
	n := int64(256 << 20)
	nearEnd := f.PCIeCopyAsync(0, 0, 0, n, true) // socket 0 -> device 0 (near)
	eng2 := sim.NewEngine()
	f2 := NewShardedFabric([]*sim.Engine{eng2}, PSG())
	farEnd := f2.PCIeCopyAsync(0, 0, 1, n, true) // socket 1 -> device 0 (far)
	ratio := float64(farEnd) / float64(nearEnd)
	if ratio < 3.0 || ratio > 3.6 {
		t.Fatalf("far/near large-transfer ratio = %.2f, want ~3.5 (Figure 8)", ratio)
	}
}

func TestFabricNUMAPenaltySmallMessageDamped(t *testing.T) {
	// For tiny transfers, latency dominates and the penalty ratio shrinks —
	// the same shape as the left side of Figure 8.
	eng := sim.NewEngine()
	f := NewShardedFabric([]*sim.Engine{eng}, PSG())
	near := f.PCIeCopyAsync(0, 0, 0, 64, true)
	eng2 := sim.NewEngine()
	f2 := NewShardedFabric([]*sim.Engine{eng2}, PSG())
	far := f2.PCIeCopyAsync(0, 0, 1, 64, true)
	ratio := float64(far) / float64(near)
	if ratio > 1.5 {
		t.Fatalf("64B far/near ratio = %.2f, want close to 1", ratio)
	}
}

func TestFabricNegativeSocketMeansNear(t *testing.T) {
	eng := sim.NewEngine()
	f := NewShardedFabric([]*sim.Engine{eng}, PSG())
	a := f.PCIeCopyAsync(0, 0, -1, 1<<20, true)
	eng2 := sim.NewEngine()
	f2 := NewShardedFabric([]*sim.Engine{eng2}, PSG())
	b := f2.PCIeCopyAsync(0, 0, 0, 1<<20, true)
	if a != b {
		t.Fatalf("socket -1 (%v) should equal near socket (%v)", a, b)
	}
}

func TestFabricIntegratedDeviceUsesHostCopy(t *testing.T) {
	sys := HeteroDemo()
	eng := sim.NewEngine()
	f := NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	// Node 2 devices are CPUAccel; a "PCIe" copy must cost a host copy.
	got := f.PCIeCopyAsync(2, 0, 1, 1<<20, true)
	eng2 := sim.NewEngine()
	f2 := NewShardedFabric(slices.Repeat([]*sim.Engine{eng2}, len(sys.Nodes)), sys)
	want := f2.HostCopyAsync(2, 1<<20)
	if got != want {
		t.Fatalf("integrated copy = %v, want host copy %v", got, want)
	}
}

func TestFabricP2P(t *testing.T) {
	eng := sim.NewEngine()
	f := NewShardedFabric([]*sim.Engine{eng}, PSG())
	if !f.CanP2P(0, 0, 1) {
		t.Fatal("PSG devices 0,1 must be P2P-capable")
	}
	if f.CanP2P(0, 0, 4) {
		t.Fatal("cross-socket devices must not be P2P-capable")
	}
	if f.CanP2P(0, 2, 2) {
		t.Fatal("a device is not P2P with itself")
	}
	end := f.P2PCopyAsync(0, 0, 1, 1<<30)
	// 1 GiB at 10.5 GB/s ~ 102ms; must be far below the staged
	// DtoH+HtoH+HtoD path.
	if end > sim.Time(150*sim.Millisecond) {
		t.Fatalf("P2P copy of 1GiB took %v", sim.Dur(end))
	}
}

func TestFabricP2PContention(t *testing.T) {
	// Two P2P copies sharing a link must serialize.
	eng := sim.NewEngine()
	f := NewShardedFabric([]*sim.Engine{eng}, PSG())
	e1 := f.P2PCopyAsync(0, 0, 1, 1<<30)
	e2 := f.P2PCopyAsync(0, 1, 2, 1<<30) // shares device 1's link
	if e2 < e1 {
		t.Fatalf("overlapping copies did not serialize: %v then %v", e1, e2)
	}
	if d := e2 - e1; d < sim.Time(90*sim.Millisecond) {
		t.Fatalf("second copy gained only %v over first", sim.Dur(d))
	}
}

func TestFabricNetSend(t *testing.T) {
	sys := Titan(2)
	eng := sim.NewEngine()
	f := NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	var end sim.Time
	eng.Spawn("s", func(p *sim.Proc) {
		arrive, occupy := f.NetInjectAsync(0, 1, 1<<30)
		p.SleepUntil(arrive)
		p.SleepUntil(f.NetAcceptAsync(1, occupy))
		end = p.Now()
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	// 1 GiB at 4.5 GB/s ~ 239ms.
	if end < sim.Time(200*sim.Millisecond) || end > sim.Time(280*sim.Millisecond) {
		t.Fatalf("1GiB Gemini transfer = %v, want ~239ms", sim.Dur(end))
	}
	if !f.RDMACapable(0, 1) {
		t.Fatal("Titan must be RDMA capable both ways")
	}
}

func TestFabricNICSerializes(t *testing.T) {
	sys := Titan(3)
	eng := sim.NewEngine()
	f := NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	e1, _ := f.NetInjectAsync(0, 1, 1<<28)
	e2, _ := f.NetInjectAsync(0, 2, 1<<28) // same source NIC
	if e2 <= e1 {
		t.Fatal("sends sharing a NIC must serialize")
	}
}

func TestDeviceClassString(t *testing.T) {
	if NVIDIAGPU.String() != "nvidia" || XeonPhi.String() != "xeonphi" ||
		CPUAccel.String() != "cpu" || AMDGPU.String() != "radeon" ||
		FPGA.String() != "fpga" {
		t.Fatal("device class names wrong")
	}
	if DeviceClass(99).String() != "DeviceClass(99)" {
		t.Fatal("unknown class formatting wrong")
	}
	if NVIDIAGPU.Integrated() || !CPUAccel.Integrated() {
		t.Fatal("Integrated() wrong")
	}
}

// Property: link occupancy is monotone in message size and never negative.
func TestLinkTimeMonotoneProperty(t *testing.T) {
	l := LinkSpec{Latency: 1000, GBs: 5, SWOverhead: 300}
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		tx, ty := l.Occupy(x), l.Occupy(y)
		return tx <= ty && tx >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the NUMA penalty never makes a transfer cheaper and converges to
// the configured factor for large sizes.
func TestNUMAPenaltyProperty(t *testing.T) {
	f := func(sz uint32) bool {
		n := int64(sz)
		e1 := sim.NewEngine()
		near := NewShardedFabric([]*sim.Engine{e1}, PSG()).PCIeCopyAsync(0, 0, 0, n, true)
		e2 := sim.NewEngine()
		far := NewShardedFabric([]*sim.Engine{e2}, PSG()).PCIeCopyAsync(0, 0, 1, n, true)
		return far >= near
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseClassMask(t *testing.T) {
	cases := []struct {
		in   string
		want ClassMask
		err  bool
	}{
		{"", 0, false},
		{"default", 0, false},
		{"acc_device_default", 0, false},
		{"nvidia", MaskOf(NVIDIAGPU), false},
		{"acc_device_nvidia", MaskOf(NVIDIAGPU), false},
		{"nvidia|xeonphi", MaskOf(NVIDIAGPU, XeonPhi), false},
		{"acc_device_nvidia | acc_device_xeonphi", MaskOf(NVIDIAGPU, XeonPhi), false},
		{"cpu", MaskOf(CPUAccel), false},
		{"host", MaskOf(CPUAccel), false},
		{"radeon|fpga", MaskOf(AMDGPU, FPGA), false},
		{"quantum", 0, true},
	}
	for _, c := range cases {
		got, err := ParseClassMask(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseClassMask(%q) err = %v", c.in, err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseClassMask(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// newTestEngine is a tiny helper for fabric tests over loaded systems.
func newTestEngine() *sim.Engine { return sim.NewEngine() }
