package msg

import (
	"errors"
	"testing"

	"impacc/internal/sim"
	"impacc/internal/topo"
)

// stubFaults is a minimal FaultModel for exercising the resilience paths
// without pulling in the fault package (msg must not depend on it).
type stubFaults struct {
	linkUpAt sim.Time // link is down strictly before this instant
	rdmaDown bool
}

func (f *stubFaults) LinkUp(node int, at sim.Time) bool       { return at >= f.linkUpAt }
func (f *stubFaults) RDMAUp(from, node int, at sim.Time) bool { return !f.rdmaDown }

// counterVal reads a hub counter registered on the shared engine registry.
func counterVal(eng *sim.Engine, h *Hub, family string) int64 {
	return eng.Metrics.Counter(family, "", "node", h.Fab.Sys.Nodes[h.Node].Name).Value()
}

// TestSendBufferReuseAfterDone is the regression test for the stale-read
// hazard: the sender overwrites its buffer the moment Done fires, long
// before the receiver posts. The receive must land the bytes that were in
// the buffer at post time, not the scribbles.
func TestSendBufferReuseAfterDone(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), impaccCfg())
	const n = 2048
	src, _ := e0.Space.AllocHost(n, true)
	dst, _ := e1.Space.AllocHost(n, true)
	sb, _ := e0.Space.Bytes(src, n)
	for i := range sb {
		sb[i] = byte(i * 7)
	}
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 3, Addr: src, Bytes: n, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 3, Addr: dst, Bytes: n, Ep: e1})
	eng.Spawn("sender", func(p *sim.Proc) {
		h0.PostNetSend(p, s, h1)
		s.Done.Wait(p)
		// Done means "buffer reusable": clobber it immediately.
		for i := range sb {
			sb[i] = 0xEE
		}
	})
	eng.Spawn("recver", func(p *sim.Proc) {
		p.Sleep(1 * sim.Second) // message parks unexpected; sender scribbled long ago
		h1.PostNetRecv(p, rc)
		rc.Done.Wait(p)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if s.Err != nil || rc.Err != nil {
		t.Fatalf("errs: send=%v recv=%v", s.Err, rc.Err)
	}
	db, _ := e1.Space.Bytes(dst, n)
	for i := range db {
		if db[i] != byte(i*7) {
			t.Fatalf("stale read: byte %d = %#x, want %#x", i, db[i], byte(i*7))
		}
	}
}

// TestOversizedSendFailsEagerly: a send whose Bytes overruns its segment
// must fail at post time (the snapshot is mandatory), not silently send a
// short or corrupt payload.
func TestOversizedSendFailsEagerly(t *testing.T) {
	eng, h0, h1, e0, _ := twoNodeRig(t, topo.Titan(2), impaccCfg())
	src, _ := e0.Space.AllocHost(1024, true)
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 1, Addr: src, Bytes: 2048, Ep: e0})
	eng.Spawn("sender", func(p *sim.Proc) {
		h0.PostNetSend(p, s, h1)
		s.Done.Wait(p)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if s.Err == nil {
		t.Fatal("oversized send succeeded; want range error")
	}
}

// TestInternodeTruncation: a too-small receive posted against an internode
// message fails with a truncation error instead of overflowing the buffer.
func TestInternodeTruncation(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), impaccCfg())
	src, _ := e0.Space.AllocHost(1024, true)
	dst, _ := e1.Space.AllocHost(512, true)
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 4, Addr: src, Bytes: 1024, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 4, Addr: dst, Bytes: 512, Ep: e1})
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
	if s.Err != nil {
		t.Fatalf("send err = %v (wire transfer should succeed)", s.Err)
	}
	if rc.Err == nil {
		t.Fatal("truncated recv succeeded; want truncation error")
	}
}

// TestInternodeZeroByteParity: the zero-byte fast path must report the same
// match metadata (MatchedSrc/Tag/Bytes), fire the OnMatch hook, and count
// NetOut/NetIn exactly like the payload path.
func TestInternodeZeroByteParity(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), impaccCfg())
	matches := 0
	var matchBytes int64 = -1
	h1.OnMatch = func(sendID, recvID uint64, post sim.Time, bytes int64) {
		matches++
		matchBytes = bytes
		if sendID != 11 || recvID != 22 {
			t.Errorf("OnMatch ids = (%d, %d), want (11, 22)", sendID, recvID)
		}
	}
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 9, Bytes: 0, Ep: e0, TraceID: 11})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 9, Bytes: 0, Ep: e1, TraceID: 22})
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
	if rc.Err != nil || s.Err != nil {
		t.Fatalf("errs: send=%v recv=%v", s.Err, rc.Err)
	}
	if matches != 1 || matchBytes != 0 {
		t.Fatalf("OnMatch fired %d times (bytes %d), want once with 0 bytes", matches, matchBytes)
	}
	if rc.MatchedSrc != 0 || rc.MatchedTag != 9 || rc.MatchedBytes != 0 {
		t.Fatalf("match metadata = src %d tag %d bytes %d", rc.MatchedSrc, rc.MatchedTag, rc.MatchedBytes)
	}
	if h0.Stats().NetOut != 1 || h1.Stats().NetIn != 1 {
		t.Fatalf("net counters: out=%d in=%d, want 1/1", h0.Stats().NetOut, h1.Stats().NetIn)
	}
}

// TestLegacyRejectsDeviceRecv covers the receive side of the Legacy device
// memory rule: an internode message matched against a device-memory receive
// buffer must fail the receive, not crash or silently stage.
func TestLegacyRejectsDeviceRecv(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), legacyCfg())
	src, _ := e0.Space.AllocHost(4096, true)
	dst, _ := e1.Ctx.MemAlloc(4096)
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 5, Addr: src, Bytes: 4096, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 5, Addr: dst, Bytes: 4096, Ep: e1})
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
	if rc.Err == nil {
		t.Fatal("legacy device recv succeeded; want rejection")
	}
}

// TestNetSendRetriesThroughOutage: with the link down until t=5ms, the send
// defers with backoff and eventually completes; the payload still lands and
// the retries are counted.
func TestNetSendRetriesThroughOutage(t *testing.T) {
	cfg := impaccCfg()
	cfg.MaxNetRetries = 8
	cfg.NetBackoff = 100 * sim.Microsecond
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), cfg)
	h0.SetFaults(&stubFaults{linkUpAt: sim.Time(5 * sim.Millisecond)})
	src, _ := e0.Space.AllocHost(1024, true)
	dst, _ := e1.Space.AllocHost(1024, true)
	sb, _ := e0.Space.Bytes(src, 1024)
	for i := range sb {
		sb[i] = byte(i)
	}
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 6, Addr: src, Bytes: 1024, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 6, Addr: dst, Bytes: 1024, Ep: e1})
	faultSpans := 0
	h0.OnFault = func(kind string, rank int, start, end sim.Time) {
		if kind == "retry" {
			faultSpans++
		}
	}
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
	if s.Err != nil || rc.Err != nil {
		t.Fatalf("errs: send=%v recv=%v", s.Err, rc.Err)
	}
	db, _ := e1.Space.Bytes(dst, 1024)
	for i := range db {
		if db[i] != byte(i) {
			t.Fatalf("payload mismatch at %d after retries", i)
		}
	}
	if got := counterVal(eng, h0, NetRetriesTotal); got == 0 {
		t.Fatal("no retries counted through a 5ms outage")
	} else if int64(faultSpans) != got {
		t.Fatalf("OnFault retry spans = %d, counter = %d", faultSpans, got)
	}
}

// TestNetSendExhaustsRetries: a permanently down link fails the send with a
// *NetError carrying the attempt count, and the pending receive fails by
// timeout instead of wedging the run.
func TestNetSendExhaustsRetries(t *testing.T) {
	cfg := impaccCfg()
	cfg.MaxNetRetries = 3
	cfg.NetBackoff = 10 * sim.Microsecond
	cfg.NetTimeout = 100 * sim.Millisecond
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), cfg)
	down := &stubFaults{linkUpAt: sim.Time(1 << 62)} // never
	h0.SetFaults(down)
	h1.SetFaults(down)
	src, _ := e0.Space.AllocHost(256, true)
	dst, _ := e1.Space.AllocHost(256, true)
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 8, Addr: src, Bytes: 256, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 8, Addr: dst, Bytes: 256, Ep: e1})
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
	var ne *NetError
	if !errors.As(s.Err, &ne) || ne.Op != "send" || ne.Attempts != 3 {
		t.Fatalf("send err = %v, want *NetError op=send attempts=3", s.Err)
	}
	if !errors.As(rc.Err, &ne) || ne.Op != "recv" {
		t.Fatalf("recv err = %v, want *NetError op=recv (timeout)", rc.Err)
	}
	if got := counterVal(eng, h0, NetFailuresTotal); got != 1 {
		t.Fatalf("failure counter = %d, want 1", got)
	}
	if got := counterVal(eng, h1, NetTimeoutsTotal); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestTimedOutRecvDoesNotStealLateMessage: after a receive times out, a
// later message with the same key must match a freshly posted receive, not
// the dead one (the fired-command purge in takeRecvFor).
func TestTimedOutRecvDoesNotStealLateMessage(t *testing.T) {
	cfg := impaccCfg()
	cfg.NetTimeout = 1 * sim.Millisecond
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), cfg)
	src, _ := e0.Space.AllocHost(512, true)
	dst1, _ := e1.Space.AllocHost(512, true)
	dst2, _ := e1.Space.AllocHost(512, true)
	sb, _ := e0.Space.Bytes(src, 512)
	for i := range sb {
		sb[i] = byte(i ^ 0x5A)
	}
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 2, Addr: src, Bytes: 512, Ep: e0})
	r1 := newCmd(eng, "r1", Cmd{Src: 0, Dst: 1, Tag: 2, Addr: dst1, Bytes: 512, Ep: e1})
	r2 := newCmd(eng, "r2", Cmd{Src: 0, Dst: 1, Tag: 2, Addr: dst2, Bytes: 512, Ep: e1})
	eng.Spawn("sender", func(p *sim.Proc) {
		// Past r1's 1ms deadline, but inside r2's window (r2 is posted at
		// ~1ms, so its own deadline lands near 2ms).
		p.Sleep(1500 * sim.Microsecond)
		h0.PostNetSend(p, s, h1)
		s.Done.Wait(p)
	})
	eng.Spawn("recver", func(p *sim.Proc) {
		h1.PostNetRecv(p, r1)
		r1.Done.Wait(p) // fails at 1ms
		h1.PostNetRecv(p, r2)
		r2.Done.Wait(p)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	var ne *NetError
	if !errors.As(r1.Err, &ne) || ne.Op != "recv" {
		t.Fatalf("r1 err = %v, want timeout *NetError", r1.Err)
	}
	if r2.Err != nil {
		t.Fatalf("r2 err = %v, want success", r2.Err)
	}
	db, _ := e1.Space.Bytes(dst2, 512)
	for i := range db {
		if db[i] != byte(i^0x5A) {
			t.Fatalf("late message landed wrong at %d", i)
		}
	}
}

// TestRDMARerouteToStaging: a flapped RDMA path degrades a device-to-device
// internode transfer to the pinned staging path — staged counters tick, the
// direct counter does not, and the reroute is counted.
func TestRDMARerouteToStaging(t *testing.T) {
	eng, h0, h1, e0, e1 := twoNodeRig(t, topo.Titan(2), impaccCfg())
	flap := &stubFaults{rdmaDown: true}
	h0.SetFaults(flap)
	h1.SetFaults(flap)
	src, _ := e0.Ctx.MemAlloc(1 << 20)
	dst, _ := e1.Ctx.MemAlloc(1 << 20)
	s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Tag: 7, Addr: src, Bytes: 1 << 20, Ep: e0})
	rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Tag: 7, Addr: dst, Bytes: 1 << 20, Ep: e1})
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
	if s.Err != nil || rc.Err != nil {
		t.Fatalf("errs: send=%v recv=%v", s.Err, rc.Err)
	}
	st := h0.Stats()
	if st.RDMADirect != 0 {
		t.Fatalf("rdmaDirect = %d with RDMA flapped, want 0", st.RDMADirect)
	}
	if st.Staged == 0 || h1.Stats().Staged == 0 {
		t.Fatalf("staged = %d/%d, want both sides staged", st.Staged, h1.Stats().Staged)
	}
	if got := counterVal(eng, h0, NetReroutedTotal); got != 1 {
		t.Fatalf("rerouted counter = %d, want 1", got)
	}
}
