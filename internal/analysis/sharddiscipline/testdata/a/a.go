package a

import (
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// direct schedules straight onto a looked-up foreign engine.
func direct(f *topo.Fabric, dst int) {
	f.Engine(dst).Spawn("x", func(p *sim.Proc) {}) // want `Spawn on another shard's engine`
}

// viaAssign tracks the lookup through a local variable.
func viaAssign(f *topo.Fabric, dst int) {
	e := f.Engine(dst)
	e.At(10, func() {}) // want `At on another shard's engine`
}

// viaIndex: indexing the shard slice is a cross-shard lookup too.
func viaIndex(shards []*sim.Engine) {
	shards[1].After(5, func() {}) // want `After on another shard's engine`
}

// viaRange: iterating the shard list visits engines the iterating
// goroutine does not own.
func viaRange(shards []*sim.Engine) {
	for _, e := range shards {
		e.SpawnAt(0, "x", func(p *sim.Proc) {}) // want `SpawnAt on another shard's engine`
	}
}

// foreignPost: posting on a foreign engine's behalf is wrong as well — the
// outbox being appended to belongs to the shard that runs the code.
func foreignPost(f *topo.Fabric, local *sim.Engine, dst int) {
	f.Engine(dst).Post(local, 10, sim.Func(func() {})) // want `Post on another shard's engine`
}

// postOK is the sanctioned cross-shard channel: Post on the local engine,
// and inside the posted callback the destination engine is the executing
// (local) one, so scheduling on it there is legal — the shape of the
// internode delivery path.
func postOK(local *sim.Engine, f *topo.Fabric, dst int) {
	dstEng := f.Engine(dst)
	local.Post(dstEng, 20, sim.Func(func() {
		dstEng.At(25, func() {})
	}))
}

// callAtRemote: scheduling an owner-as-callback is scheduling too.
func callAtRemote(f *topo.Fabric, dst int, cb sim.Callback) {
	f.Engine(dst).CallAt(10, cb) // want `CallAt on another shard's engine`
}

// reassigned: overwriting the variable with a local engine clears the mark.
func reassigned(f *topo.Fabric, local *sim.Engine, dst int) {
	e := f.Engine(dst)
	e = local
	e.At(30, func() {})
}

// schedule and forward are helpers that (transitively) schedule onto their
// engine parameter; handing them a foreign engine is flagged at the call.
func schedule(e *sim.Engine, at sim.Time) { e.At(at, func() {}) }

func forward(e *sim.Engine, at sim.Time) { schedule(e, at) }

func viaHelper(f *topo.Fabric, dst int) {
	schedule(f.Engine(dst), 30) // want `passes another shard's engine to schedule`
	forward(f.Engine(dst), 40)  // want `passes another shard's engine to forward`
}

// storeOnly takes an engine but never schedules on it; passing a foreign
// engine for bookkeeping is fine.
type holder struct{ e *sim.Engine }

func storeOnly(e *sim.Engine) *holder { return &holder{e: e} }

func viaStoreOnly(f *topo.Fabric, dst int) *holder {
	return storeOnly(f.Engine(dst))
}

// readsOK: reading a foreign engine's clock does not mutate its timeline.
func readsOK(f *topo.Fabric, shards []*sim.Engine, dst int) sim.Time {
	return f.Engine(dst).Now() + shards[0].Now()
}

// localOK: engines not obtained through a cross-shard lookup stay usable.
func localOK(local *sim.Engine) {
	local.At(50, func() {})
	local.Spawn("y", func(p *sim.Proc) {})
}

// annotated is the reasoned escape hatch for setup-time population of
// quiescent engines.
func annotated(f *topo.Fabric, dst int) {
	//impacc:allow-sharddiscipline setup-time spawn onto a quiescent engine before the group starts
	f.Engine(dst).Spawn("task", func(p *sim.Proc) {})
}
