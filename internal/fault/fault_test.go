package fault

import (
	"reflect"
	"testing"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

func mustParse(t *testing.T, text string) *Spec {
	t.Helper()
	sp, err := ParseSpec(text)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", text, err)
	}
	return sp
}

func TestParseSpec(t *testing.T) {
	sp := mustParse(t, "42:degrade=*:4:1ms:5ms,flap=1:2ms:500us,rdmaflap=*:1ms:100us,"+
		"stall=0:0.5:10us,straggle=0:1.5,copyfail=*:0.25,timeout=2ms,retries=6,backoff=50us")
	if sp.Seed != 42 {
		t.Fatalf("seed = %d", sp.Seed)
	}
	if sp.Timeout() != 2*sim.Millisecond || sp.Retries() != 6 || sp.Backoff() != 50*sim.Microsecond {
		t.Fatalf("resilience knobs: %v %d %v", sp.Timeout(), sp.Retries(), sp.Backoff())
	}
	if len(sp.degrades) != 1 || len(sp.flaps) != 2 || len(sp.stalls) != 1 ||
		len(sp.straggles) != 1 || len(sp.copyFails) != 1 {
		t.Fatalf("rule counts: %+v", sp)
	}
	if sp.String() == "" {
		t.Fatal("String() lost the spec")
	}
}

// TestSpecStringRoundTrip: ParseSpec(sp.String()) must reproduce sp exactly
// for every rule kind and every knob — the property that lets chaos specs
// participate in content-addressed cache keys and be echoed in job status.
func TestSpecStringRoundTrip(t *testing.T) {
	cases := []string{
		// each rule kind alone, with every optional field exercised
		"1:degrade=*:4",
		"1:degrade=2:1.5:1ms",
		"1:degrade=0:2:500us:2ms",
		"1:flap=*:2ms:500us",
		"1:flap=3:1s:250ms",
		"1:rdmaflap=1:2ms:500us",
		"1:stall=0:0.5:10us",
		"1:stall=*:0.125:1500ns",
		"1:straggle=*:2",
		"1:straggle=0:1.5:1ms:5ms",
		"1:copyfail=*:0.25",
		"1:copyfail=7:1",
		// each knob alone
		"1:timeout=2ms",
		"1:retries=6",
		"1:backoff=50us",
		// everything at once, deliberately out of canonical order
		"42:backoff=50us,copyfail=*:0.25,straggle=0:1.5,stall=0:0.5:10us," +
			"rdmaflap=*:1ms:100us,flap=1:2ms:500us,degrade=*:4:1ms:5ms,timeout=2ms,retries=6",
		// duplicate kinds: relative order within a kind must survive
		"9:straggle=*:1.5,straggle=0:2,degrade=0:2,degrade=1:3",
		// fractional durations that still have an exact ns form
		"3:stall=0:0.5:1.5us,flap=0:1.5ms:0.5ms",
	}
	for _, text := range cases {
		sp1 := mustParse(t, text)
		canon := sp1.String()
		sp2, err := ParseSpec(canon)
		if err != nil {
			t.Errorf("ParseSpec(%q).String() = %q does not re-parse: %v", text, canon, err)
			continue
		}
		if !reflect.DeepEqual(sp1, sp2) {
			t.Errorf("round trip of %q not identity:\n canon %q\n sp1 %+v\n sp2 %+v", text, canon, sp1, sp2)
		}
		if again := sp2.String(); again != canon {
			t.Errorf("String not a fixed point for %q: %q then %q", text, canon, again)
		}
	}
}

// TestSpecStringCanonicalOrder: two textual orderings of the same rules
// within a kind group plus knobs must render identically.
func TestSpecStringCanonicalOrder(t *testing.T) {
	a := mustParse(t, "5:retries=3,copyfail=*:0.5,degrade=0:2")
	b := mustParse(t, "5:degrade=0:2,copyfail=*:0.5,retries=3")
	if a.String() != b.String() {
		t.Fatalf("knob/rule ordering leaked into canonical form:\n %q\n %q", a.String(), b.String())
	}
	if a.String() != "5:degrade=0:2,copyfail=*:0.5,retries=3" {
		t.Fatalf("unexpected canonical form %q", a.String())
	}
}

func TestParseSpecDefaults(t *testing.T) {
	sp := mustParse(t, "7:straggle=*:2")
	if sp.Timeout() != DefaultTimeout || sp.Retries() != DefaultRetries || sp.Backoff() != DefaultBackoff {
		t.Fatalf("defaults: %v %d %v", sp.Timeout(), sp.Retries(), sp.Backoff())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"no-seed-rule",          // missing seed separator
		"x:straggle=*:2",        // bad seed
		"1:bogus=1:2",           // unknown rule
		"1:degrade=*:0.5",       // factor < 1
		"1:flap=0:1ms:2ms",      // down >= period
		"1:stall=0:1.5:1us",     // probability > 1
		"1:copyfail=q:0.5",      // bad node
		"1:degrade=0:2:5ms:1ms", // window end before start
		"1:timeout=10",          // missing duration unit
		"1:retries=0",           // retries < 1
		"1:straggle",            // missing args
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q): expected error", text)
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	sp := mustParse(t, "99:flap=*:2ms:300us,stall=*:0.5:10us,copyfail=*:0.3,degrade=1:2")
	draw := func() []any {
		p := planOver(sp, 4)
		var out []any
		for i := 0; i < 64; i++ {
			node := i % 4
			at := sim.Time(i) * 100_000
			out = append(out, p.LinkUp(node, at), p.RDMAUp(node, node, at),
				p.SendStall(node), p.CopyFail(node), p.LinkFactor(node, at))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlapPeriodicity(t *testing.T) {
	// A 1ms period with 250us down must be down for exactly 1/4 of a long
	// sampling window, at every node, regardless of phase.
	sp := mustParse(t, "5:flap=*:1ms:250us")
	p := planOver(sp, 2)
	const samples = 4000
	down := 0
	for i := 0; i < samples; i++ {
		if !p.LinkUp(0, sim.Time(i)*sim.Time(sim.Microsecond)) {
			down++
		}
	}
	if down != samples/4 {
		t.Fatalf("down %d/%d samples, want exactly 1/4", down, samples)
	}
	// Full-link flap also takes RDMA down at the same instants.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Time(sim.Microsecond)
		if p.LinkUp(0, at) != p.RDMAUp(0, 0, at) {
			t.Fatalf("full-link flap must imply RDMA down at %v", at)
		}
	}
}

func TestRDMAFlapLeavesLinkUp(t *testing.T) {
	sp := mustParse(t, "5:rdmaflap=0:1ms:400us")
	p := planOver(sp, 2)
	sawDown := false
	for i := 0; i < 2000; i++ {
		at := sim.Time(i) * sim.Time(sim.Microsecond)
		if !p.LinkUp(0, at) {
			t.Fatalf("rdmaflap must not take the full link down (t=%v)", at)
		}
		if !p.RDMAUp(0, 0, at) {
			sawDown = true
		}
		if !p.RDMAUp(1, 1, at) {
			t.Fatalf("rule scoped to node 0 hit node 1 (t=%v)", at)
		}
	}
	if !sawDown {
		t.Fatal("rdmaflap never took RDMA down")
	}
}

func TestDegradeWindow(t *testing.T) {
	sp := mustParse(t, "5:degrade=1:4:1ms:2ms")
	p := planOver(sp, 2)
	ms := sim.Time(sim.Millisecond)
	if f := p.LinkFactor(1, ms/2); f != 1 {
		t.Fatalf("before window: factor %v", f)
	}
	if f := p.LinkFactor(1, ms+ms/2); f != 4 {
		t.Fatalf("inside window: factor %v", f)
	}
	if f := p.LinkFactor(1, 2*ms); f != 1 {
		t.Fatalf("after window: factor %v", f)
	}
	if f := p.LinkFactor(0, ms+ms/2); f != 1 {
		t.Fatalf("other node: factor %v", f)
	}
}

func TestStraggleFactorCompounds(t *testing.T) {
	sp := mustParse(t, "5:straggle=*:1.5,straggle=0:2")
	p := planOver(sp, 2)
	if f := p.StraggleFactor(0, 0); f != 3 {
		t.Fatalf("node 0 factor %v, want 1.5*2", f)
	}
	if f := p.StraggleFactor(1, 0); f != 1.5 {
		t.Fatalf("node 1 factor %v, want 1.5", f)
	}
}

func TestStallAndCopyFailRates(t *testing.T) {
	sp := mustParse(t, "11:stall=0:0.5:10us,copyfail=0:0.25")
	p := planOver(sp, 1)
	stalls, fails := 0, 0
	const n = 10000
	for i := 0; i < n; i++ {
		if p.SendStall(0) > 0 {
			stalls++
		}
		if p.CopyFail(0) {
			fails++
		}
	}
	if stalls < n*4/10 || stalls > n*6/10 {
		t.Fatalf("stall rate %d/%d far from 0.5", stalls, n)
	}
	if fails < n*15/100 || fails > n*35/100 {
		t.Fatalf("copyfail rate %d/%d far from 0.25", fails, n)
	}
}

// planOver builds a plan for n nodes, each recording into a fresh registry.
func planOver(sp *Spec, n int) *Plan {
	regs := make([]*telemetry.Registry, n)
	for i := range regs {
		regs[i] = telemetry.NewRegistry()
	}
	return NewPlan(sp, regs)
}

// TestTelemetryCounters: injections are counted live in the registry of the
// node that asked, stamped by that registry's clock. An RDMA-path query about
// a remote node lands in the asker's registry under the remote node's label.
func TestTelemetryCounters(t *testing.T) {
	sp := mustParse(t, "5:degrade=0:2,copyfail=0:1,rdmaflap=1:1ms:400us")
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	var now int64
	for _, r := range regs {
		r.SetClock(func() int64 { return now })
	}
	p := NewPlan(sp, regs)
	now = 100
	p.LinkFactor(0, 100)
	now = 200
	p.CopyFail(0)
	now = 300
	p.CopyFail(0)
	downs := 0
	var lastDown int64
	for i := 0; i < 2000; i++ {
		at := sim.Time(i) * sim.Time(sim.Microsecond)
		now = int64(at)
		if !p.RDMAUp(0, 1, at) {
			downs++
			lastDown = now
		}
	}
	if downs == 0 {
		t.Fatal("rdmaflap on node 1 never took its RDMA path down")
	}
	type sample struct{ value, lastNs int64 }
	series := func(reg *telemetry.Registry, kind, node string) *sample {
		var got *sample
		reg.Snapshot(0).Values(func(name string, lastNs int64, v float64) {
			if name == InjectedTotal+"{kind="+kind+",node="+node+"}" {
				got = &sample{int64(v), lastNs}
			}
		})
		return got
	}
	for _, c := range []struct {
		kind, node    string
		value, lastNs int64
	}{{"degrade", "0", 1, 100}, {"copyfail", "0", 2, 300}, {"rdmadown", "1", int64(downs), lastDown}} {
		s := series(regs[0], c.kind, c.node)
		if s == nil || s.value != c.value || s.lastNs != c.lastNs {
			t.Fatalf("%s{node=%s} in node 0's registry = %+v, want value %d at %d", c.kind, c.node, s, c.value, c.lastNs)
		}
	}
	if n := regs[1].Snapshot(0).NumFamilies(); n != 0 {
		t.Fatalf("node 1's registry recorded injections it never asked about: %d families", n)
	}
}
