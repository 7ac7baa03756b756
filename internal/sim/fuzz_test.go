package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzShardGroup decodes bytes into a random program on 1–8 shards and
// checks the engine two ways. Against the reference executor (refexec_test.go),
// which runs the program from one heap with no windows or shards, every run
// must end with the same error and MaxNow and write the same dispatch log
// on every shard (see refResult.admits for the stops a window may
// overshoot). Against itself, every observable — the logs, beats, window
// horizons, the error and the stall dump — must be identical with in-place
// resume on and off, at 1, 2 and 8 workers, and with each process of the
// kind its input decodes, with every process a coroutine and with every
// process stackless. Run it with
//
//	go test -run '^$' -fuzz FuzzShardGroup -fuzztime 15s ./internal/sim/
func FuzzShardGroup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeFuzzProgram(data)
		want := prog.reference()
		var ref string
		for _, kinds := range []fuzzKinds{kindsDecoded, kindsStackful, kindsStackless} {
			for _, on := range []bool{true, false} {
				for _, workers := range []int{1, 2, 8} {
					var got *fuzzOutcome
					withInPlace(on, func() { got = prog.run(workers, kinds) })
					if err := want.admits(got); err != nil {
						t.Fatalf("kinds %d, in-place %v, %d workers: the reference executor disagrees: %v\nengine run: %s", kinds, on, workers, err, got.render)
					}
					if ref == "" {
						ref = got.render
						continue
					}
					if got.render != ref {
						t.Fatalf("kinds %d, in-place %v, %d workers: run differs\n got: %s\nwant: %s", kinds, on, workers, got.render, ref)
					}
				}
			}
		}
	})
}

// fuzzKinds picks which processes of a run are stackless.
type fuzzKinds int

const (
	kindsDecoded   fuzzKinds = iota // as each process's stackless bit says
	kindsStackful                   // every process a coroutine
	kindsStackless                  // every process stackless
)

// fuzzProgram is a decoded FuzzShardGroup input: group settings and one op
// list per process.
type fuzzProgram struct {
	shards    int
	lookahead Dur
	maxEvents uint64
	deadline  Time
	beat      Dur
	flight    int
	procs     []fuzzProc
}

// fuzzProc is one process: its shard, start time, kind and ops.
type fuzzProc struct {
	shard     int
	start     Time
	stackless bool
	ops       []fuzzOp
}

// fuzzOp is one step of a process: an opcode and its argument byte.
type fuzzOp struct{ code, arg byte }

// The opcodes a process step decodes to (code % opSpace).
const (
	opSleep      = iota // Sleep(arg%8): zero and short sleeps
	opSleepUntil        // SleepUntil(now+arg%16-4): past, same-instant and future
	opSleepLoop         // (arg>>2)%32+1 sleeps of arg%4: runs of in-place resumes
	opAtNow             // a same-instant callback
	opAt                // a callback arg%32 ahead
	opPost              // a callback on another shard, at or past the lookahead
	opFireAt            // fire one of the shard's events arg%8 ahead
	opWait              // wait on one of the shard's events
	opCondWait          // idle on the process's own slot, queued on the shard
	opCondWake          // wake the shard's longest-idle process
	opAcquire           // take the shard's semaphore
	opRelease           // return a permit to the shard's semaphore
	opUse               // FIFOResource.Use(arg%8, arg>>3%4)
	opSpawn             // spawn a child that sleeps arg%8 and wakes an idle process
	opPanic             // panic, when arg is 0xff; a callback arg%16 ahead panics, when arg>>4 is 0xe
	opPostEarly         // a callback on another shard, below the lookahead
	opCancel            // cancel the group, in a one-shard program
	opCheck             // record a verdict the group's Check hook stops on
	opCount
)

// opSpace is the fixed code space an op byte decodes into. Codes from
// opCount up are no-ops, and every committed seed's codes lie below opCount
// (TestFuzzSeedsBelowOpCount), so appending an op changes no seed's program.
const opSpace = 32

// decodeFuzzProgram turns bytes into a program. Byte 0 picks the shard count,
// byte 1 the lookahead, byte 2 which limits and observers are armed and
// bytes 3–5 their values; the rest are (code, arg) pairs, where code 0xff
// starts a new process on shard arg%shards, stackless when arg's top bit is
// set.
func decodeFuzzProgram(data []byte) *fuzzProgram {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	p := &fuzzProgram{shards: 1 + int(at(0)%8), lookahead: Dur(1 + at(1)%32)}
	flags := at(2)
	if flags&1 != 0 {
		p.maxEvents = 1 + uint64(at(3))*3
	}
	if flags&2 != 0 {
		p.deadline = Time(at(4)) * 4
	}
	if flags&4 != 0 {
		p.beat = Dur(1 + at(5)%64)
	}
	if flags&8 != 0 {
		p.flight = 1 + int(flags>>4)
	}
	cur := -1
	for i := 6; i+1 < len(data); i += 2 {
		code, arg := data[i], data[i+1]
		if cur < 0 || code == 0xff {
			if len(p.procs) == 32 {
				break
			}
			p.procs = append(p.procs, fuzzProc{shard: int(arg) % p.shards, start: Time(arg / 8 % 4), stackless: arg&0x80 != 0})
			cur = len(p.procs) - 1
			if code == 0xff {
				continue
			}
		}
		p.procs[cur].ops = append(p.procs[cur].ops, fuzzOp{code % opSpace, arg})
	}
	return p
}

// checkErr is the error the group's Check hook, and the run's final check,
// return for the earliest verdict: it names the verdict's time alone, which
// is all a barrier can know of it.
func checkErr(at Time) error { return fmt.Errorf("check: verdict at %d", at) }

// fuzzSys is what a process's ops act on: its shard of the engine under
// test, or its LP in the reference executor. Every park point reports
// whether the process parked, as a stackless step's do.
type fuzzSys interface {
	lp() int
	now() Time
	sleep(d Dur) bool
	sleepUntil(t Time) bool
	callAt(t Time, tag string, arg byte)        // act(tag, arg) on this shard
	panicAt(t Time, tag string)                 // a callback on this shard that logs tag and panics
	post(dst int, t Time, tag string, arg byte) // act(tag, arg) on shard dst
	fireAt(t Time, ev int)
	wait(ev int) bool
	idle() bool // wait on the process's own slot, queued on the shard
	wake()      // wake the shard's longest-idle process
	acquire() bool
	release()
	use(occupy, tail Dur) bool
	spawn(child *fuzzRun)
	cancel()
	verdict()
	note(what string)
}

// fuzzRun is one process of a program and its progress: k is the op it is
// running and sub how far into that op it got, so a process resumes mid-op.
// A coroutine runs the same body, whose park points never report parked.
type fuzzRun struct {
	prog   *fuzzProgram
	sys    fuzzSys
	name   string
	ops    []fuzzOp
	k, sub int
}

// body runs the process's ops from where it stands until one parks, and
// reports whether it parked.
func (f *fuzzRun) body() bool {
	for ; f.k < len(f.ops); f.k, f.sub = f.k+1, 0 {
		if f.step(fmt.Sprintf("%s.%d", f.name, f.k), f.ops[f.k]) {
			return true
		}
		f.sys.note(f.name)
	}
	return false
}

// once runs park point park the first time the op reaches it and reports
// whether it parked; resumed, the op has passed it.
func (f *fuzzRun) once(park func() bool) bool {
	if f.sub > 0 {
		return false
	}
	f.sub = 1
	return park()
}

// step runs one op; tag names the callbacks and children it makes. It
// reports whether the process parked, so the op resumes at f.sub.
func (f *fuzzRun) step(tag string, op fuzzOp) bool {
	s, prog, arg := f.sys, f.prog, op.arg
	other := (s.lp() + 1 + int(arg>>5)) % prog.shards
	switch op.code {
	case opSleep:
		return f.once(func() bool { return s.sleep(Dur(arg % 8)) })
	case opSleepUntil:
		return f.once(func() bool { return s.sleepUntil(s.now() + Time(arg%16) - 4) })
	case opSleepLoop:
		for f.sub < int(arg>>2%32)+1 {
			f.sub++
			if s.sleep(Dur(arg % 4)) {
				return true
			}
		}
	case opAtNow:
		s.callAt(s.now(), tag, arg)
	case opAt:
		s.callAt(s.now()+Time(arg%32), tag, arg)
	case opPost:
		s.post(other, s.now()+Time(prog.lookahead)+Time(arg%8), tag, arg>>3)
	case opFireAt:
		s.fireAt(s.now()+Time(arg%8), int(arg>>3%2))
	case opWait:
		return f.once(func() bool { return s.wait(int(arg % 2)) })
	case opCondWait:
		return f.once(s.idle)
	case opCondWake:
		s.wake()
	case opAcquire:
		return f.once(s.acquire)
	case opRelease:
		s.release()
	case opUse:
		return f.once(func() bool { return s.use(Dur(arg%8), Dur(arg>>3%4)) })
	case opSpawn:
		s.spawn(&fuzzRun{prog: prog, name: tag, ops: []fuzzOp{{opSleep, arg}, {opCondWake, 0}}})
	case opPanic:
		// A callback panics through opPanic's spare args.
		switch {
		case arg == 0xff:
			panic(tag)
		case arg>>4 == 0xe:
			s.panicAt(s.now()+Time(arg%16), tag)
		}
	case opPostEarly:
		s.post(other, s.now()+Time(arg)%Time(prog.lookahead), tag, arg>>3)
	case opCancel:
		// Where a cancel stops the other shards of a sharded run depends
		// on the host's scheduling, so only a one-shard run is a function
		// of its program.
		if prog.shards == 1 {
			s.cancel()
		}
	case opCheck:
		s.verdict()
	}
	return false
}

// fuzzShard is one shard's engine, its primitives and its dispatch log.
// Only code running on the shard writes its log.
type fuzzShard struct {
	e       *Engine
	events  [2]*Event
	idle    FIFO[*Idle] // the idle slots of waiting processes, oldest first
	sem     *Semaphore
	res     *FIFOResource
	log     strings.Builder
	times   []Time // the time of each log entry
	verdict Time   // the shard's first verdict, when judged
	judged  bool
}

// note logs one dispatch on s: what ran and the engine's stamp for it.
func (s *fuzzShard) note(what string) {
	fmt.Fprintf(&s.log, "%s@%d/%d/%d/%d;", what, s.e.now, int32(s.e.depth()), s.e.seq, s.e.dispatched)
	s.times = append(s.times, s.e.now)
}

// act is the callback run on s for a callback op: it logs, then fires an
// event, wakes an idle process or releases the semaphore, by arg.
func (s *fuzzShard) act(tag string, arg byte) Callback {
	return Func(func() {
		s.note(tag)
		switch arg % 4 {
		case 1:
			s.events[arg>>2%2].Fire()
		case 2:
			s.wake()
		case 3:
			s.sem.Release()
		}
	})
}

// wake resumes the shard's longest-idle process, if any.
func (s *fuzzShard) wake() {
	if slot, ok := s.idle.Pop(); ok {
		slot.Wake()
	}
}

// engineSys is a process's fuzzSys on the engine under test: p is the
// process, set at each resume.
type engineSys struct {
	g         *ShardGroup
	shards    []*fuzzShard
	s         *fuzzShard
	p         *Proc
	slot      Idle
	stackless bool
}

func (es *engineSys) lp() int                { return int(es.s.e.lp) }
func (es *engineSys) now() Time              { return es.s.e.now }
func (es *engineSys) sleep(d Dur) bool       { return es.p.Sleep(d) }
func (es *engineSys) sleepUntil(t Time) bool { return es.p.SleepUntil(t) }
func (es *engineSys) callAt(t Time, tag string, arg byte) {
	es.s.e.CallAt(t, es.s.act(tag, arg))
}
func (es *engineSys) panicAt(t Time, tag string) {
	es.s.e.At(t, func() { es.s.note(tag); panic(tag) })
}
func (es *engineSys) post(dst int, t Time, tag string, arg byte) {
	d := es.shards[dst]
	es.s.e.Post(d.e, t, d.act(tag, arg))
}
func (es *engineSys) fireAt(t Time, ev int) { es.s.e.FireAt(t, es.s.events[ev]) }
func (es *engineSys) wait(ev int) bool      { return es.s.events[ev].Wait(es.p) }
func (es *engineSys) idle() bool {
	es.s.idle.Push(&es.slot)
	return es.slot.Wait(es.p)
}
func (es *engineSys) wake()            { es.s.wake() }
func (es *engineSys) acquire() bool    { return es.s.sem.Acquire(es.p) }
func (es *engineSys) release()         { es.s.sem.Release() }
func (es *engineSys) cancel()          { es.g.Cancel() }
func (es *engineSys) note(w string)    { es.s.note(w) }
func (es *engineSys) spawn(c *fuzzRun) { es.start(c, es.s.e.now) }
func (es *engineSys) use(occupy, tail Dur) bool {
	_, parked := es.s.res.Use(es.p, occupy, tail)
	return parked
}
func (es *engineSys) verdict() {
	if !es.s.judged {
		es.s.verdict, es.s.judged = es.s.e.now, true
	}
}

// start spawns f, at t on es's shard, as a process of es's kind with a
// fuzzSys of its own.
func (es *engineSys) start(f *fuzzRun, t Time) {
	c := &engineSys{g: es.g, shards: es.shards, s: es.s, slot: NewIdle("c"), stackless: es.stackless}
	f.sys = c
	if c.stackless {
		es.s.e.SpawnStepAt(t, f.name, func(p *Proc) { c.p = p; f.body() })
	} else {
		es.s.e.SpawnAt(t, f.name, func(p *Proc) { c.p = p; f.body() })
	}
}

// fuzzOutcome is what a run of the engine shows: each shard's dispatch log
// and entry times, the horizon of every window barrier with the log
// lengths it saw, the error and MaxNow, and render, everything observable
// as one string for the engine's differential check.
type fuzzOutcome struct {
	logs   []string
	times  [][]Time
	marks  []fuzzMark
	err    error
	maxNow Time
	render string
}

// fuzzMark is one OnWindow call: the horizon and each shard's log length.
type fuzzMark struct {
	horizon Time
	lens    []int
}

// run executes the program at the given worker count, with processes of the
// given kinds.
func (prog *fuzzProgram) run(workers int, kinds fuzzKinds) *fuzzOutcome {
	shards := make([]*fuzzShard, prog.shards)
	engines := make([]*Engine, prog.shards)
	for i := range shards {
		e := NewLPEngine(i)
		s := &fuzzShard{e: e, sem: e.NewSemaphore(1, "s"), res: e.NewFIFOResource("r")}
		for j := range s.events {
			s.events[j] = e.NewEvent(fmt.Sprint("ev", j))
		}
		shards[i], engines[i] = s, e
	}
	g := NewShardGroup(engines, prog.lookahead, workers)
	g.MaxEvents, g.Deadline, g.BeatEvery = prog.maxEvents, prog.deadline, prog.beat
	out := &fuzzOutcome{}
	var obs strings.Builder
	g.OnBeat = func(at Time) {
		fmt.Fprintf(&obs, "beat %d events %d [", at, g.Events())
		g.EachBlocked(func(name, on string) { fmt.Fprintf(&obs, "%s:%s ", name, on) })
		obs.WriteString("]\n")
	}
	g.OnWindow = func(horizon Time) {
		fmt.Fprintf(&obs, "window %d\n", horizon)
		m := fuzzMark{horizon: horizon}
		for _, s := range shards {
			m.lens = append(m.lens, len(s.times))
		}
		out.marks = append(out.marks, m)
	}
	// verdict is the earliest verdict before horizon: a barrier may only
	// decide from what happened before its horizon.
	verdict := func(horizon Time) error {
		t, found := Time(0), false
		for _, s := range shards {
			if s.judged && s.verdict < horizon && (!found || s.verdict < t) {
				t, found = s.verdict, true
			}
		}
		if found {
			return checkErr(t)
		}
		return nil
	}
	g.Check = func(horizon Time) error {
		fmt.Fprintf(&obs, "check %d\n", horizon)
		return verdict(horizon)
	}
	g.ArmFlight(prog.flight)
	for i, pr := range prog.procs {
		f := &fuzzRun{prog: prog, name: fmt.Sprint("p", i), ops: pr.ops}
		root := &engineSys{g: g, shards: shards, s: shards[pr.shard],
			stackless: kinds == kindsStackless || kinds == kindsDecoded && pr.stackless}
		root.start(f, pr.start)
	}
	err := g.Run()
	// A drained or deadlocked run gets a last check, as core's task-heap
	// cap gets in Execute.
	var dl *DeadlockError
	if err == nil || errors.As(err, &dl) {
		if cerr := verdict(timeInfinity); cerr != nil {
			err = cerr
		}
	}
	out.err, out.maxNow = err, g.MaxNow()
	fmt.Fprintf(&obs, "err %T %v\nmaxnow %d events %d\n", err, err, g.MaxNow(), g.Events())
	if st := g.Stall(); st != nil {
		var b bytes.Buffer
		if werr := st.WriteJSON(&b); werr != nil {
			panic(werr)
		}
		obs.Write(b.Bytes())
	}
	for i, s := range shards {
		fmt.Fprintf(&obs, "shard %d: %s\n", i, s.log.String())
		out.logs = append(out.logs, s.log.String())
		out.times = append(out.times, s.times)
	}
	out.render = obs.String()
	return out
}

// TestEarlyPostSeeds: the FuzzShardGroup seeds with a post below the
// lookahead end in that post's *PanicError at every worker count, as the
// reference executor predicts, whether the event would have landed in the
// destination's past, its future, or the event budget's last window.
func TestEarlyPostSeeds(t *testing.T) {
	for _, name := range []string{"early-post-causality", "early-post-idle", "early-post-budget"} {
		seedEndsIn(t, name, postProc)
	}
}

// TestCallbackPanicSeed: the callback-panic seed, whose callback panics on
// one shard of three, ends in that callback's *PanicError at every worker
// count, as the reference executor predicts.
func TestCallbackPanicSeed(t *testing.T) { seedEndsIn(t, "callback-panic", "fn") }

// TestFuzzSeedsBelowOpCount: every committed FuzzShardGroup seed names its
// ops by codes below opCount, so appending an op changes none of them.
func TestFuzzSeedsBelowOpCount(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzShardGroup", "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
	for _, name := range names {
		data := readSeed(t, filepath.Base(name))
		for i := 6; i+1 < len(data); i += 2 {
			if code := data[i]; code != 0xff && code >= opCount {
				t.Errorf("%s: op code %d at byte %d, want below opCount %d", filepath.Base(name), code, i, opCount)
			}
		}
	}
}

// readSeed returns the bytes of the committed FuzzShardGroup seed name.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzShardGroup", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1]), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: cannot decode seed: %v", name, err)
	}
	return []byte(data)
}

// seedEndsIn checks that the FuzzShardGroup seed name ends, on the
// reference executor and at workers {1, 2, 8}, in a *PanicError of proc.
func seedEndsIn(t *testing.T, name, proc string) {
	t.Helper()
	prog := decodeFuzzProgram(readSeed(t, name))
	ends := func(err error) bool {
		pe, ok := err.(*PanicError)
		return ok && pe.Proc == proc
	}
	if err := prog.reference().err; !ends(err) {
		t.Fatalf("%s: reference ends in %v, want a *PanicError of %s", name, err, proc)
	}
	for _, workers := range []int{1, 2, 8} {
		if err := prog.run(workers, kindsDecoded).err; !ends(err) {
			t.Fatalf("%s, %d workers: run ends in %v, want a *PanicError of %s", name, workers, err, proc)
		}
	}
}
