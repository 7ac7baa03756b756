package a

import "impacc/internal/sim"

var eng = sim.NewEngine()

// badBeat mutates simulation state through a helper: the interprocedural
// closure must carry poke's Engine.After call back to this wiring.
func badBeat(at sim.Time) { // want `badBeat is wired as a OnBeat observer but mutates simulation state \(Engine\.After call`
	poke(eng)
}

func poke(e *sim.Engine) { e.After(1, func() {}) }

// badMetrics writes a state-bearing field directly.
func badMetrics(at sim.Time) { // want `badMetrics is wired as a OnBeat observer but mutates simulation state \(write to Engine\.Metrics`
	eng.Metrics = nil
}

// tally is the observer's own state — mutating it is what observers do.
type tally struct{ beats int }

var counts tally

func goodBeat(at sim.Time) {
	_ = eng.Now()
	counts.beats++
}

// annotatedBeat deliberately perturbs, with the escape hatch on the site.
func annotatedBeat(at sim.Time) {
	eng.Spawn("x", nil) //impacc:allow-observerpure fixture: deliberate perturbation under test
}

// Progress mirrors core's observer hook shape: a func-valued Emit field on
// a type named Progress.
type Progress struct {
	Every sim.Dur
	Emit  func(at sim.Time)
}

func badEmit(at sim.Time) { // want `badEmit is wired as a Progress\.Emit observer but mutates simulation state \(Engine\.Spawn call`
	eng.Spawn("x", nil)
}

func goodEmit(at sim.Time) { counts.beats++ }

func wire(g *sim.ShardGroup) {
	g.OnBeat = badBeat
	g.OnBeat = badMetrics
	g.OnBeat = goodBeat
	g.OnBeat = annotatedBeat
	_ = Progress{Every: 10, Emit: badEmit}
	_ = Progress{Every: 10, Emit: goodEmit}
	g.OnWindow = func(fence sim.Time) {
		eng.At(fence, func() {}) // want `OnWindow observer calls Engine\.At, mutating simulation state`
	}
	g.OnWindow = func(fence sim.Time) {
		poke(eng) // want `OnWindow observer calls poke, which mutates simulation state \(Engine\.After call`
	}
	g.OnWindow = func(fence sim.Time) {
		counts.beats++ // reads and own-state writes stay legal
	}
}

// SpanSink mirrors core.SpanSink: any implementation observes a run, so its
// methods are held to the same read-only contract.
type SpanSink interface {
	Emit(recs []int) error
	Close(makespan sim.Time) error
}

type badSink struct{ e *sim.Engine }

func (b *badSink) Emit(recs []int) error { // want `Emit is wired as a SpanSink observer but mutates simulation state \(Engine\.Spawn call`
	b.e.Spawn("x", nil)
	return nil
}

func (b *badSink) Close(makespan sim.Time) error { return nil }

type goodSink struct{ n int }

func (g *goodSink) Emit(recs []int) error { g.n += len(recs); return nil }

func (g *goodSink) Close(makespan sim.Time) error { return nil }

var (
	_ SpanSink = (*badSink)(nil)
	_ SpanSink = (*goodSink)(nil)
)
