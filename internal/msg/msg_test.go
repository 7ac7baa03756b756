package msg

import (
	"slices"
	"testing"

	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// impaccCfg are production IMPACC hub settings used across tests.
func impaccCfg() Config {
	return Config{
		Aliasing: true, RDMA: true, DirectP2P: true,
		ThreadMultiple: true,
		MPIOverhead:    400,
	}
}

func legacyCfg() Config {
	return Config{Legacy: true, ThreadMultiple: true, MPIOverhead: 400}
}

// nodeRig is one simulated node with a hub and two endpoints.
type nodeRig struct {
	eng  *sim.Engine
	fab  *topo.Fabric
	hub  *Hub
	sp   *xmem.Space
	heap *xmem.HeapTable
	rt   *device.Runtime
}

func newNodeRig(t *testing.T, sys *topo.System, cfg Config) *nodeRig {
	t.Helper()
	eng := sim.NewEngine()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	heap := xmem.NewHeapTable()
	hub := NewHub(eng, fab, 0, cfg, heap)
	sp := xmem.NewSpace("node0", len(sys.Nodes[0].Devices))
	rt := device.NewRuntime(eng, fab, 0)
	return &nodeRig{eng: eng, fab: fab, hub: hub, sp: sp, heap: heap, rt: rt}
}

func (r *nodeRig) endpoint(rank, dev int, space *xmem.Space) *Endpoint {
	sock := r.fab.Sys.Nodes[0].Devices[dev].Socket
	return &Endpoint{
		Rank: rank, Node: 0, Space: space,
		Ctx: r.rt.NewContext(dev, space, sock, true, true),
	}
}

func (r *nodeRig) run(t *testing.T) {
	t.Helper()
	if err := sim.NewShardGroup([]*sim.Engine{r.eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
}

// newCmd returns a copy of cmd whose Done is an unfired event on eng,
// labelled why.
func newCmd(eng *sim.Engine, why string, cmd Cmd) *Cmd {
	c := &cmd
	eng.InitEvent(&c.Done, why)
	return c
}

// sendRecv posts a blocking pair between two endpoints and returns the
// commands after the run.
func cmdPair(eng *sim.Engine, sep, rep *Endpoint, saddr, raddr xmem.Addr, n int64, sro, rro bool) (*Cmd, *Cmd) {
	s := newCmd(eng, "send", Cmd{IsSend: true, Src: sep.Rank, Dst: rep.Rank, Tag: 7,
		Addr: saddr, Bytes: n, Ep: sep, ReadOnly: sro})
	r := newCmd(eng, "recv", Cmd{Src: sep.Rank, Dst: rep.Rank, Tag: 7,
		Addr: raddr, Bytes: n, Ep: rep, ReadOnly: rro})
	return s, r
}

func TestIntraFusedHtoH(t *testing.T) {
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	src, _ := r.sp.AllocHost(1024, true)
	dst, _ := r.sp.AllocHost(1024, true)
	sb, _ := r.sp.Bytes(src, 1024)
	for i := range sb {
		sb[i] = byte(i)
	}
	e0 := r.endpoint(0, 0, r.sp)
	e1 := r.endpoint(1, 1, r.sp)
	s, rc := cmdPair(r.eng, e0, e1, src, dst, 1024, false, false)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
		s.Done.Wait(p)
	})
	r.eng.Spawn("recver", func(p *sim.Proc) {
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	db, _ := r.sp.Bytes(dst, 1024)
	for i := range db {
		if db[i] != byte(i) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
	if r.hub.Stats().FusedCopies != 1 {
		t.Fatalf("fused = %d, want 1 (Figure 6)", r.hub.Stats().FusedCopies)
	}
	if r.hub.Stats().Aliases != 0 {
		t.Fatal("non-readonly pair must not alias")
	}
	if s.Err != nil || rc.Err != nil {
		t.Fatalf("errors: %v, %v", s.Err, rc.Err)
	}
	if e1.Ctx.Stats.HtoHCount != 1 {
		t.Fatal("fused copy not recorded on receiver context")
	}
}

func TestSendBeforeRecvAndAfter(t *testing.T) {
	// Unexpected-message path: send posted first; late recv still matches.
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	src, _ := r.sp.AllocHost(64, true)
	dst, _ := r.sp.AllocHost(64, true)
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	s, rc := cmdPair(r.eng, e0, e1, src, dst, 64, false, false)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
	})
	r.eng.Spawn("recver", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	if !s.Done.Fired() || !rc.Done.Fired() {
		t.Fatal("pair did not complete")
	}
}

func TestFIFOMatchingPerPair(t *testing.T) {
	// Two sends same (src,dst,tag): first send pairs with first recv.
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	a1, _ := r.sp.AllocHost(8, true)
	a2, _ := r.sp.AllocHost(8, true)
	d1, _ := r.sp.AllocHost(8, true)
	d2, _ := r.sp.AllocHost(8, true)
	b1, _ := r.sp.Bytes(a1, 8)
	b2, _ := r.sp.Bytes(a2, 8)
	b1[0], b2[0] = 11, 22
	mk := func(isSend bool, addr xmem.Addr) *Cmd {
		ep := e0
		if !isSend {
			ep = e1
		}
		return newCmd(r.eng, "c", Cmd{IsSend: isSend, Src: 0, Dst: 1, Tag: 0, Addr: addr,
			Bytes: 8, Ep: ep})
	}
	s1, s2 := mk(true, a1), mk(true, a2)
	r1, r2 := mk(false, d1), mk(false, d2)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.hub.PostIntra(p, s1)
		r.hub.PostIntra(p, s2)
	})
	r.eng.Spawn("recver", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		r.hub.PostIntra(p, r1)
		r.hub.PostIntra(p, r2)
		r2.Done.Wait(p)
	})
	r.run(t)
	v1, _ := r.sp.Bytes(d1, 8)
	v2, _ := r.sp.Bytes(d2, 8)
	if v1[0] != 11 || v2[0] != 22 {
		t.Fatalf("FIFO violated: got %d, %d", v1[0], v2[0])
	}
}

func TestTagAndWildcardMatching(t *testing.T) {
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	aT5, _ := r.sp.AllocHost(8, true)
	aT9, _ := r.sp.AllocHost(8, true)
	bT5, _ := r.sp.Bytes(aT5, 8)
	bT9, _ := r.sp.Bytes(aT9, 8)
	bT5[0], bT9[0] = 5, 9
	dT9, _ := r.sp.AllocHost(8, true)
	dAny, _ := r.sp.AllocHost(8, true)

	s5 := newCmd(r.eng, "s5", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 5, Addr: aT5, Bytes: 8, Ep: e0})
	s9 := newCmd(r.eng, "s9", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 9, Addr: aT9, Bytes: 8, Ep: e0})
	// Recv tagged 9 must skip the tag-5 send; any/any recv takes tag 5.
	r9 := newCmd(r.eng, "r9", Cmd{Src: 0, Dst: 1, Tag: 9, Addr: dT9, Bytes: 8, Ep: e1})
	rAny := newCmd(r.eng, "rA", Cmd{Src: AnySource, Dst: 1, Tag: AnyTag, Addr: dAny, Bytes: 8, Ep: e1})
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.hub.PostIntra(p, s5)
		r.hub.PostIntra(p, s9)
	})
	r.eng.Spawn("recver", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		r.hub.PostIntra(p, r9)
		r.hub.PostIntra(p, rAny)
		r9.Done.Wait(p)
		rAny.Done.Wait(p)
	})
	r.run(t)
	v9, _ := r.sp.Bytes(dT9, 8)
	vA, _ := r.sp.Bytes(dAny, 8)
	if v9[0] != 9 {
		t.Fatalf("tag-9 recv got %d", v9[0])
	}
	if vA[0] != 5 {
		t.Fatalf("wildcard recv got %d, want tag-5 payload", vA[0])
	}
}

func TestTruncationError(t *testing.T) {
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	src, _ := r.sp.AllocHost(128, true)
	dst, _ := r.sp.AllocHost(64, true)
	s := newCmd(r.eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 0, Addr: src, Bytes: 128, Ep: e0})
	rc := newCmd(r.eng, "r", Cmd{Src: 0, Dst: 1, Tag: 0, Addr: dst, Bytes: 64, Ep: e1})
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	if rc.Err == nil || s.Err == nil {
		t.Fatal("truncation must surface as error on both sides")
	}
}

func TestNodeHeapAliasingApplies(t *testing.T) {
	// Figure 7: 100-element src, 10-element dst at offset; readonly on
	// both sides; recv covers a whole allocation.
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	src, _ := r.sp.AllocHost(800, true)
	dst, _ := r.sp.AllocHost(80, true)
	r.heap.Register(src, 800, 0)
	r.heap.Register(dst, 80, 1)
	sb, _ := r.sp.Bytes(src, 800)
	for i := range sb {
		sb[i] = byte(i % 251)
	}
	off := xmem.Addr(240)
	s, rc := cmdPair(r.eng, e0, e1, src+off, dst, 80, true, true)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	if !s.Aliased || !rc.Aliased || r.hub.Stats().Aliases != 1 {
		t.Fatalf("aliasing not applied: %v %v %d", s.Aliased, rc.Aliased, r.hub.Stats().Aliases)
	}
	if r.hub.Stats().FusedCopies != 0 {
		t.Fatal("aliased pair must not copy")
	}
	// Receiver reads the sender's data through its own pointer.
	db, _ := r.sp.Bytes(dst, 80)
	for i := range db {
		if db[i] != byte((i+240)%251) {
			t.Fatalf("aliased read mismatch at %d", i)
		}
	}
	// Refcounts: src entry now has 2 refs, dst entry is gone.
	ent, ok := r.heap.At(src)
	if !ok || ent.Refs != 2 || !ent.Shared {
		t.Fatalf("src heap entry = %+v, %v", ent, ok)
	}
	if _, ok := r.heap.At(dst); ok {
		t.Fatal("dst heap entry must be dropped")
	}
}

func TestAliasingRequirements(t *testing.T) {
	type variant struct {
		name  string
		setup func(r *nodeRig) (sro, rro bool, saddr, raddr xmem.Addr, sn, rn int64)
	}
	base := func(r *nodeRig) (xmem.Addr, xmem.Addr) {
		src, _ := r.sp.AllocHost(256, true)
		dst, _ := r.sp.AllocHost(256, true)
		r.heap.Register(src, 256, 0)
		r.heap.Register(dst, 256, 1)
		return src, dst
	}
	variants := []variant{
		{"send not readonly", func(r *nodeRig) (bool, bool, xmem.Addr, xmem.Addr, int64, int64) {
			s, d := base(r)
			return false, true, s, d, 256, 256
		}},
		{"recv not readonly", func(r *nodeRig) (bool, bool, xmem.Addr, xmem.Addr, int64, int64) {
			s, d := base(r)
			return true, false, s, d, 256, 256
		}},
		{"partial overwrite", func(r *nodeRig) (bool, bool, xmem.Addr, xmem.Addr, int64, int64) {
			s, d := base(r)
			return true, true, s, d, 128, 128 // recv alloc is 256
		}},
		{"recv interior pointer", func(r *nodeRig) (bool, bool, xmem.Addr, xmem.Addr, int64, int64) {
			s, d := base(r)
			return true, true, s, d + 64, 128, 128
		}},
		{"recv not registered heap", func(r *nodeRig) (bool, bool, xmem.Addr, xmem.Addr, int64, int64) {
			s, _ := base(r)
			raw, _ := r.sp.AllocHost(256, true) // no heap entry
			return true, true, s, raw, 256, 256
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			r := newNodeRig(t, topo.PSG(), impaccCfg())
			e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
			sro, rro, saddr, raddr, sn, rn := v.setup(r)
			s := newCmd(r.eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 0, Addr: saddr,
				Bytes: sn, Ep: e0, ReadOnly: sro})
			rc := newCmd(r.eng, "r", Cmd{Src: 0, Dst: 1, Tag: 0, Addr: raddr, Bytes: rn,
				Ep: e1, ReadOnly: rro})
			r.eng.Spawn("x", func(p *sim.Proc) {
				r.hub.PostIntra(p, s)
				r.hub.PostIntra(p, rc)
				rc.Done.Wait(p)
			})
			r.run(t)
			if s.Aliased || rc.Aliased {
				t.Fatalf("%s: aliasing must not apply", v.name)
			}
			if rc.Err != nil {
				t.Fatalf("%s: pair errored: %v", v.name, rc.Err)
			}
			if r.hub.Stats().FusedCopies != 1 {
				t.Fatalf("%s: expected fallback fused copy", v.name)
			}
		})
	}
}

func TestDeviceBuffersNeverAlias(t *testing.T) {
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	src, _ := e0.Ctx.MemAlloc(256)
	dst, _ := e1.Ctx.MemAlloc(256)
	s, rc := cmdPair(r.eng, e0, e1, src, dst, 256, true, true)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	if s.Aliased {
		t.Fatal("device buffers must not alias (requirement 2)")
	}
	if r.hub.Stats().FusedCopies != 1 {
		t.Fatal("expected a fused DtoD copy")
	}
	if e1.Ctx.Stats.DtoDCount != 1 {
		t.Fatal("DtoD not recorded")
	}
}

func TestLegacyIntraIsSlowerThanFused(t *testing.T) {
	n := int64(16 << 20)
	run := func(cfg Config) sim.Dur {
		r := newNodeRig(t, topo.PSG(), cfg)
		e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
		var sp1 *xmem.Space
		if cfg.Legacy {
			sp1 = xmem.NewSpace("p1", 8) // private space per process
			e1 = &Endpoint{Rank: 1, Node: 0, Space: sp1,
				Ctx: r.rt.NewContext(1, sp1, 0, true, false)}
		}
		src, _ := e0.Space.AllocHost(n, true)
		dst, _ := e1.Space.AllocHost(n, true)
		s, rc := cmdPair(r.eng, e0, e1, src, dst, n, false, false)
		var elapsed sim.Dur
		r.eng.Spawn("x", func(p *sim.Proc) {
			start := p.Now()
			r.hub.PostIntra(p, s)
			r.hub.PostIntra(p, rc)
			rc.Done.Wait(p)
			elapsed = sim.Dur(p.Now() - start)
		})
		r.run(t)
		if cfg.Legacy && r.hub.Stats().LegacyCopies != 2 {
			t.Fatalf("legacy copies = %d, want 2 (redundant HtoH)", r.hub.Stats().LegacyCopies)
		}
		return elapsed
	}
	fused := run(impaccCfg())
	legacy := run(legacyCfg())
	ratio := float64(legacy) / float64(fused)
	if ratio < 2.0 {
		t.Fatalf("legacy/fused HtoH ratio = %.2f, want > 2 (redundant copy + IPC)", ratio)
	}
}

func TestDtoDP2PVsDisabled(t *testing.T) {
	n := int64(64 << 20)
	run := func(p2p bool) sim.Dur {
		cfg := impaccCfg()
		cfg.DirectP2P = p2p
		r := newNodeRig(t, topo.PSG(), cfg)
		e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
		src, _ := e0.Ctx.MemAlloc(n)
		dst, _ := e1.Ctx.MemAlloc(n)
		s, rc := cmdPair(r.eng, e0, e1, src, dst, n, false, false)
		var elapsed sim.Dur
		r.eng.Spawn("x", func(p *sim.Proc) {
			start := p.Now()
			r.hub.PostIntra(p, s)
			r.hub.PostIntra(p, rc)
			rc.Done.Wait(p)
			elapsed = sim.Dur(p.Now() - start)
		})
		r.run(t)
		return elapsed
	}
	direct := run(true)
	staged := run(false)
	if float64(staged)/float64(direct) < 1.5 {
		t.Fatalf("staged %v vs direct %v: P2P gain too small", staged, direct)
	}
}

// twoNodeRig wires two Titan nodes with one endpoint each.
func twoNodeRig(t testing.TB, sys *topo.System, cfg Config) (*sim.Engine, *Hub, *Hub, *Endpoint, *Endpoint) {
	t.Helper()
	eng := sim.NewEngine()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	h0 := NewHub(eng, fab, 0, cfg, xmem.NewHeapTable())
	h1 := NewHub(eng, fab, 1, cfg, xmem.NewHeapTable())
	rt0 := device.NewRuntime(eng, fab, 0)
	rt1 := device.NewRuntime(eng, fab, 1)
	sp0 := xmem.NewSpace("n0", len(sys.Nodes[0].Devices))
	sp1 := xmem.NewSpace("n1", len(sys.Nodes[1].Devices))
	e0 := &Endpoint{Rank: 0, Node: 0, Space: sp0, Ctx: rt0.NewContext(0, sp0, 0, true, true)}
	e1 := &Endpoint{Rank: 1, Node: 1, Space: sp1, Ctx: rt1.NewContext(0, sp1, 0, true, true)}
	return eng, h0, h1, e0, e1
}

func TestInternodeHostToHost(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), impaccCfg())
	src, _ := e0.Space.AllocHost(4096, true)
	dst, _ := e1.Space.AllocHost(4096, true)
	sb, _ := e0.Space.Bytes(src, 4096)
	for i := range sb {
		sb[i] = byte(i * 3)
	}
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 2, Addr: src, Bytes: 4096, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 2, Addr: dst, Bytes: 4096, Ep: e1})
	eng.Spawn("sender", func(p *sim.Proc) {
		h0.PostNetSend(p, s, h1)
		s.Done.Wait(p)
	})
	eng.Spawn("recver", func(p *sim.Proc) {
		h1.PostNetRecv(p, rc)
		rc.Done.Wait(p)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	db, _ := e1.Space.Bytes(dst, 4096)
	for i := range db {
		if db[i] != byte(i*3) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
	if h0.Stats().NetOut != 1 || h1.Stats().NetIn != 1 {
		t.Fatalf("net counters: out=%d in=%d", h0.Stats().NetOut, h1.Stats().NetIn)
	}
	if rc.Err != nil {
		t.Fatal(rc.Err)
	}
}

func TestInternodeDeviceRDMAvsStaged(t *testing.T) {
	// Titan NICs are RDMA-capable: device send goes direct. With RDMA
	// disabled, the same transfer stages through pinned host memory.
	run := func(rdma bool) (sim.Dur, *Hub, *Hub) {
		cfg := impaccCfg()
		cfg.RDMA = rdma
		eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), cfg)
		src, _ := e0.Ctx.MemAlloc(16 << 20)
		dst, _ := e1.Ctx.MemAlloc(16 << 20)
		s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 0, Addr: src, Bytes: 16 << 20, Ep: e0})
		rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 0, Addr: dst, Bytes: 16 << 20, Ep: e1})
		var elapsed sim.Dur
		eng.Spawn("sender", func(p *sim.Proc) { h0.PostNetSend(p, s, h1) })
		eng.Spawn("recver", func(p *sim.Proc) {
			start := p.Now()
			h1.PostNetRecv(p, rc)
			rc.Done.Wait(p)
			elapsed = sim.Dur(p.Now() - start)
		})
		if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed, h0, h1
	}
	direct, h0d, _ := run(true)
	staged, h0s, h1s := run(false)
	if h0d.Stats().RDMADirect != 1 || h0d.Stats().Staged != 0 {
		t.Fatalf("RDMA run: direct=%d staged=%d", h0d.Stats().RDMADirect, h0d.Stats().Staged)
	}
	if h0s.Stats().Staged != 1 || h1s.Stats().Staged != 1 {
		t.Fatalf("staged run: sender staged=%d recv staged=%d", h0s.Stats().Staged, h1s.Stats().Staged)
	}
	if direct >= staged {
		t.Fatalf("GPUDirect RDMA (%v) must beat staging (%v) — Figure 9 g-i", direct, staged)
	}
}

func TestLegacyRejectsDeviceBuffers(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), legacyCfg())
	src, _ := e0.Ctx.MemAlloc(1024)
	dst, _ := e1.Space.AllocHost(1024, true)
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 0, Addr: src, Bytes: 1024, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 0, Addr: dst, Bytes: 1024, Ep: e1})
	eng.Spawn("x", func(p *sim.Proc) {
		h0.PostNetSend(p, s, h1)
		s.Done.Wait(p)
	})
	_ = rc
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if s.Err == nil {
		t.Fatal("legacy device-memory send must error")
	}
}

func TestSerializedInternodeWithoutThreadMultiple(t *testing.T) {
	// Without MPI_THREAD_MULTIPLE, two tasks on one node serialize their
	// MPI calls (paper §3.7).
	run := func(tm bool) sim.Time {
		cfg := impaccCfg()
		cfg.ThreadMultiple = tm
		cfg.MPIOverhead = 100 * sim.Microsecond // exaggerate to observe
		sys := topo.Beacon(2)
		eng := sim.NewEngine()
		fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
		h0 := NewHub(eng, fab, 0, cfg, xmem.NewHeapTable())
		h1 := NewHub(eng, fab, 1, cfg, xmem.NewHeapTable())
		rt0 := device.NewRuntime(eng, fab, 0)
		sp0 := xmem.NewSpace("n0", 4)
		sp1 := xmem.NewSpace("n1", 4)
		rt1 := device.NewRuntime(eng, fab, 1)
		var last sim.Time
		for i := 0; i < 4; i++ {
			i := i
			e := &Endpoint{Rank: i, Node: 0, Space: sp0, Ctx: rt0.NewContext(i, sp0, 0, true, true)}
			er := &Endpoint{Rank: 10 + i, Node: 1, Space: sp1, Ctx: rt1.NewContext(i, sp1, 0, true, true)}
			src, _ := sp0.AllocHost(64, true)
			dst, _ := sp1.AllocHost(64, true)
			s := newCmd(eng, "s", Cmd{IsSend: true, Src: i, Dst: 10 + i, Tag: 0, Addr: src, Bytes: 64, Ep: e})
			rc := newCmd(eng, "r", Cmd{Src: i, Dst: 10 + i, Tag: 0, Addr: dst, Bytes: 64, Ep: er})
			eng.Spawn("s", func(p *sim.Proc) {
				h0.PostNetSend(p, s, h1)
				s.Done.Wait(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
			eng.Spawn("r", func(p *sim.Proc) {
				h1.PostNetRecv(p, rc)
				rc.Done.Wait(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	parallel := run(true)
	serial := run(false)
	if serial <= parallel {
		t.Fatalf("serialized MPI (%v) must be slower than THREAD_MULTIPLE (%v)", serial, parallel)
	}
}

func TestUnbackedPayloadTimingOnly(t *testing.T) {
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	src, _ := r.sp.AllocHost(1<<20, false)
	dst, _ := r.sp.AllocHost(1<<20, false)
	s, rc := cmdPair(r.eng, e0, e1, src, dst, 1<<20, false, false)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	if rc.Err != nil {
		t.Fatal(rc.Err)
	}
	if r.hub.Stats().FusedCopies != 1 {
		t.Fatal("unbacked transfer must still be priced")
	}
}

func TestFusedDtoDCrossSocketStaged(t *testing.T) {
	// Devices 0 and 4 on PSG sit on different root complexes: the fused
	// copy must stage DtoH + HtoD rather than go direct.
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0 := r.endpoint(0, 0, r.sp)
	e4 := r.endpoint(1, 4, r.sp)
	src, _ := e0.Ctx.MemAlloc(32 << 20)
	dst, _ := e4.Ctx.MemAlloc(32 << 20)
	s, rc := cmdPair(r.eng, e0, e4, src, dst, 32<<20, false, false)
	var elapsed sim.Dur
	r.eng.Spawn("x", func(p *sim.Proc) {
		start := p.Now()
		r.hub.PostIntra(p, s)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
		elapsed = sim.Dur(p.Now() - start)
	})
	r.run(t)
	// Same size direct P2P between devices 0,1:
	r2 := newNodeRig(t, topo.PSG(), impaccCfg())
	f0 := r2.endpoint(0, 0, r2.sp)
	f1 := r2.endpoint(1, 1, r2.sp)
	src2, _ := f0.Ctx.MemAlloc(32 << 20)
	dst2, _ := f1.Ctx.MemAlloc(32 << 20)
	s2, rc2 := cmdPair(r2.eng, f0, f1, src2, dst2, 32<<20, false, false)
	var direct sim.Dur
	r2.eng.Spawn("x", func(p *sim.Proc) {
		start := p.Now()
		r2.hub.PostIntra(p, s2)
		r2.hub.PostIntra(p, rc2)
		rc2.Done.Wait(p)
		direct = sim.Dur(p.Now() - start)
	})
	r2.run(t)
	if elapsed <= direct {
		t.Fatalf("cross-socket staged (%v) should cost more than P2P (%v)", elapsed, direct)
	}
}

func TestFusedSameDeviceCopy(t *testing.T) {
	// Both endpoints on the same device: on-device DMA.
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0 := r.endpoint(0, 0, r.sp)
	e1 := r.endpoint(1, 0, r.sp) // same device 0
	src, _ := e0.Ctx.MemAlloc(1 << 20)
	dst, _ := e1.Ctx.MemAlloc(1 << 20)
	s, rc := cmdPair(r.eng, e0, e1, src, dst, 1<<20, false, false)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.hub.PostIntra(p, s)
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
	})
	r.run(t)
	if rc.Err != nil || r.hub.Stats().FusedCopies != 1 {
		t.Fatalf("same-device fusion failed: %v, %d", rc.Err, r.hub.Stats().FusedCopies)
	}
	if r.hub.HandlerBusy() == 0 {
		t.Fatal("handler busy time not accounted")
	}
}

func TestNetArrivalBeforeWildcardRecv(t *testing.T) {
	// Internode message arrives before any recv is posted; a later
	// wildcard recv must still match it.
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), impaccCfg())
	src, _ := e0.Space.AllocHost(256, true)
	dst, _ := e1.Space.AllocHost(256, true)
	sb, _ := e0.Space.Bytes(src, 256)
	sb[9] = 0x42
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 3, Addr: src, Bytes: 256, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: AnySource, Dst: 1, Tag: AnyTag, Addr: dst, Bytes: 256, Ep: e1})
	eng.Spawn("sender", func(p *sim.Proc) {
		h0.PostNetSend(p, s, h1)
	})
	eng.Spawn("recver", func(p *sim.Proc) {
		p.Sleep(50 * sim.Millisecond) // long after arrival
		h1.PostNetRecv(p, rc)
		rc.Done.Wait(p)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	db, _ := e1.Space.Bytes(dst, 256)
	if db[9] != 0x42 {
		t.Fatal("late wildcard recv missed stored arrival")
	}
}

func TestSerializedStagingHoldsLock(t *testing.T) {
	// Beacon (no RDMA): without THREAD_MULTIPLE, concurrent device sends
	// must serialize through the library's staging window.
	run := func(tm bool) sim.Time {
		cfg := impaccCfg()
		cfg.ThreadMultiple = tm
		sys := topo.Beacon(2)
		eng := sim.NewEngine()
		fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
		h0 := NewHub(eng, fab, 0, cfg, xmem.NewHeapTable())
		h1 := NewHub(eng, fab, 1, cfg, xmem.NewHeapTable())
		rt0 := device.NewRuntime(eng, fab, 0)
		rt1 := device.NewRuntime(eng, fab, 1)
		sp0 := xmem.NewSpace("n0", 4)
		sp1 := xmem.NewSpace("n1", 4)
		// Latency-bound regime: small device messages issued in aligned
		// rounds, so the serialized call window (library overhead +
		// staging setup) collides across the node's four tasks.
		const rounds = 16
		const period = 500 * sim.Microsecond
		var last sim.Time
		for i := 0; i < 4; i++ {
			i := i
			es := &Endpoint{Rank: i, Node: 0, Space: sp0, Ctx: rt0.NewContext(i, sp0, 0, true, true)}
			er := &Endpoint{Rank: 10 + i, Node: 1, Space: sp1, Ctx: rt1.NewContext(i, sp1, 0, true, true)}
			src, _ := es.Ctx.MemAlloc(4096)
			dst, _ := er.Ctx.MemAlloc(4096)
			eng.Spawn("s", func(p *sim.Proc) {
				for round := 0; round < rounds; round++ {
					p.SleepUntil(sim.Time(round) * sim.Time(period))
					s := newCmd(eng, "s", Cmd{IsSend: true, Src: i, Dst: 10 + i, Tag: round, Addr: src,
						Bytes: 4096, Ep: es})
					h0.PostNetSend(p, s, h1)
					s.Done.Wait(p)
					if p.Now() > last {
						last = p.Now()
					}
				}
			})
			eng.Spawn("r", func(p *sim.Proc) {
				for round := 0; round < rounds; round++ {
					rc := newCmd(eng, "r", Cmd{Src: i, Dst: 10 + i, Tag: round, Addr: dst,
						Bytes: 4096, Ep: er})
					h1.PostNetRecv(p, rc)
					rc.Done.Wait(p)
				}
			})
		}
		if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	parallel := run(true)
	serial := run(false)
	// The serialized staging copies (each task has its own PCIe link that
	// could have overlapped) must cost extra time.
	if serial <= parallel {
		t.Fatalf("serialized staging (%v) not slower than THREAD_MULTIPLE (%v)", serial, parallel)
	}
}

func TestHubProbe(t *testing.T) {
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	src, _ := r.sp.AllocHost(256, true)
	s := newCmd(r.eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 4, Addr: src, Bytes: 256, Ep: e0})
	r.eng.Spawn("x", func(p *sim.Proc) {
		if ok, _ := r.hub.Probe(1, 0, 4, 0); ok {
			t.Error("probe matched before post")
		}
		r.hub.PostIntra(p, s)
		p.Sleep(10 * sim.Microsecond) // let the handler park it
		ok, n := r.hub.Probe(1, 0, 4, 0)
		if !ok || n != 256 {
			t.Errorf("probe = %v, %d", ok, n)
		}
		// Wrong tag / dst / comm must miss.
		if ok, _ := r.hub.Probe(1, 0, 5, 0); ok {
			t.Error("probe matched wrong tag")
		}
		if ok, _ := r.hub.Probe(0, 0, 4, 0); ok {
			t.Error("probe matched wrong dst")
		}
		if ok, _ := r.hub.Probe(1, 0, 4, 9); ok {
			t.Error("probe matched wrong comm")
		}
		// Wildcards match.
		if ok, _ := r.hub.Probe(1, AnySource, AnyTag, 0); !ok {
			t.Error("wildcard probe missed")
		}
		// Consume it.
		rc := newCmd(r.eng, "r", Cmd{Src: 0, Dst: 1, Tag: 4, Addr: src, Bytes: 256, Ep: e1})
		r.hub.PostIntra(p, rc)
		rc.Done.Wait(p)
		if ok, _ := r.hub.Probe(1, 0, 4, 0); ok {
			t.Error("probe matched consumed message")
		}
	})
	r.run(t)
}

func TestCommScopedMatchingAtHubLevel(t *testing.T) {
	// Same (src, dst, tag), different comm contexts: each recv matches
	// only its own context's send.
	r := newNodeRig(t, topo.PSG(), impaccCfg())
	e0, e1 := r.endpoint(0, 0, r.sp), r.endpoint(1, 1, r.sp)
	a1, _ := r.sp.AllocHost(8, true)
	a2, _ := r.sp.AllocHost(8, true)
	d1, _ := r.sp.AllocHost(8, true)
	d2, _ := r.sp.AllocHost(8, true)
	b1, _ := r.sp.Bytes(a1, 8)
	b2, _ := r.sp.Bytes(a2, 8)
	b1[0], b2[0] = 10, 20
	s1 := newCmd(r.eng, "s1", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 0, Comm: 7, Addr: a1, Bytes: 8, Ep: e0})
	s2 := newCmd(r.eng, "s2", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 0, Comm: 8, Addr: a2, Bytes: 8, Ep: e0})
	r1 := newCmd(r.eng, "r1", Cmd{Src: 0, Dst: 1, Tag: 0, Comm: 8, Addr: d1, Bytes: 8, Ep: e1})
	r2 := newCmd(r.eng, "r2", Cmd{Src: 0, Dst: 1, Tag: 0, Comm: 7, Addr: d2, Bytes: 8, Ep: e1})
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.hub.PostIntra(p, s1)
		r.hub.PostIntra(p, s2)
		r.hub.PostIntra(p, r1) // comm 8 posted first: must take s2
		r.hub.PostIntra(p, r2)
		r1.Done.Wait(p)
		r2.Done.Wait(p)
	})
	r.run(t)
	v1, _ := r.sp.Bytes(d1, 8)
	v2, _ := r.sp.Bytes(d2, 8)
	if v1[0] != 20 || v2[0] != 10 {
		t.Fatalf("comm contexts crossed: %d, %d", v1[0], v2[0])
	}
}
