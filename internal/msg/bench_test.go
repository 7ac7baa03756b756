package msg

import (
	"testing"

	"impacc/internal/sim"
	"impacc/internal/topo"
)

// BenchmarkNetSendRecv measures one internode host message end to end:
// post the send and the receive, price the wire, deliver, match and land
// the payload. allocs/op is the hub's allocations per message, commands
// included.
func BenchmarkNetSendRecv(b *testing.B) {
	eng, h0, h1, e0, e1 := twoNodeRig(b, topo.Titan(2), impaccCfg())
	const n = 4096
	src, _ := e0.Space.AllocHost(n, true)
	dst, _ := e1.Space.AllocHost(n, true)
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s := newCmd(eng, "s", Cmd{IsSend: true, Src: 0, Dst: 1, Addr: src, Bytes: n, Ep: e0})
			h0.PostNetSend(p, s, h1)
			s.Done.Wait(p)
		}
	})
	eng.Spawn("recver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			rc := newCmd(eng, "r", Cmd{Src: 0, Dst: 1, Addr: dst, Bytes: n, Ep: e1})
			h1.PostNetRecv(p, rc)
			rc.Done.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		b.Fatal(err)
	}
}
