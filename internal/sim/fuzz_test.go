package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzShardGroup is the differential oracle for the in-place resume of
// Proc.sleepUntil and for stackless processes: it decodes bytes into a
// random program on 1–8 shards and requires every observable of the run to
// be identical with in-place resume on and off, at 1, 2 and 8 workers, and
// with each process of the kind its input decodes, with every process a
// coroutine and with every process stackless. Run it with
//
//	go test -run '^$' -fuzz FuzzShardGroup -fuzztime 15s ./internal/sim/
func FuzzShardGroup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeFuzzProgram(data)
		var ref string
		for _, kinds := range []fuzzKinds{kindsDecoded, kindsStackful, kindsStackless} {
			for _, on := range []bool{true, false} {
				for _, workers := range []int{1, 2, 8} {
					var got string
					withInPlace(on, func() { got = prog.run(workers, kinds) })
					if ref == "" {
						ref = got
						continue
					}
					if got != ref {
						t.Fatalf("kinds %d, in-place %v, %d workers: run differs\n got: %s\nwant: %s", kinds, on, workers, got, ref)
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

// The opcodes a process step decodes to (code % opCount).
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
	opPanic             // panic, when arg is 0xff
	opCount
)

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
		p.procs[cur].ops = append(p.procs[cur].ops, fuzzOp{code % opCount, arg})
	}
	return p
}

// fuzzShard is one shard's engine, its primitives and its dispatch log.
// Only code running on the shard writes its log.
type fuzzShard struct {
	e      *Engine
	events [2]*Event
	idle   FIFO[*Idle] // the idle slots of waiting processes, oldest first
	sem    *Semaphore
	res    *FIFOResource
	log    strings.Builder
}

// wake resumes the shard's longest-idle process, if any.
func (s *fuzzShard) wake() {
	if slot, ok := s.idle.Pop(); ok {
		slot.Wake()
	}
}

// note logs one dispatch on s: what ran and the engine's stamp for it.
func (s *fuzzShard) note(what string) {
	fmt.Fprintf(&s.log, "%s@%d/%d/%d/%d;", what, s.e.now, s.e.dispatchDepth, s.e.seq, s.e.dispatched)
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

// run executes the program at the given worker count, with processes of the
// given kinds, and renders everything a caller could observe: each shard's
// dispatch log, the beats and windows, the error, MaxNow, Events and the
// stall dump.
func (prog *fuzzProgram) run(workers int, kinds fuzzKinds) string {
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
	var obs strings.Builder
	g.OnBeat = func(at Time) {
		fmt.Fprintf(&obs, "beat %d events %d [", at, g.Events())
		g.EachBlocked(func(name, on string) { fmt.Fprintf(&obs, "%s:%s ", name, on) })
		obs.WriteString("]\n")
	}
	g.OnWindow = func(fence Time) { fmt.Fprintf(&obs, "window %d\n", fence) }
	g.ArmFlight(prog.flight)
	for i, pr := range prog.procs {
		s := shards[pr.shard]
		name := fmt.Sprint("p", i)
		f := &fuzzRun{prog: prog, shards: shards, s: s, name: name, ops: pr.ops, slot: NewIdle("c"),
			stackless: kinds == kindsStackless || kinds == kindsDecoded && pr.stackless}
		f.spawn(pr.start, name, f.body)
	}
	err := g.Run()
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
	}
	return obs.String()
}

// fuzzRun is one process of a program and its progress: k is the op it is
// running and sub how far into that op it got, so a stackless process
// resumes mid-op. A coroutine runs the same body, whose park points never
// report parked.
type fuzzRun struct {
	prog      *fuzzProgram
	shards    []*fuzzShard
	s         *fuzzShard
	name      string
	ops       []fuzzOp
	k, sub    int
	slot      Idle
	stackless bool
}

// spawn starts body as a process of the run's kind.
func (f *fuzzRun) spawn(at Time, name string, body func(p *Proc)) {
	if f.stackless {
		f.s.e.SpawnStepAt(at, name, body)
	} else {
		f.s.e.SpawnAt(at, name, body)
	}
}

// body runs the process's ops from where it stands until one parks.
func (f *fuzzRun) body(p *Proc) {
	for ; f.k < len(f.ops); f.k, f.sub = f.k+1, 0 {
		if f.step(p, fmt.Sprintf("%s.%d", f.name, f.k), f.ops[f.k]) {
			return
		}
		f.s.note(f.name)
	}
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

// step runs one op of process p; tag names the callbacks it schedules. It
// reports whether p parked, so the op resumes at f.sub.
func (f *fuzzRun) step(p *Proc, tag string, op fuzzOp) bool {
	s, prog := f.s, f.prog
	e, arg := s.e, op.arg
	switch op.code {
	case opSleep:
		return f.once(func() bool { return p.Sleep(Dur(arg % 8)) })
	case opSleepUntil:
		return f.once(func() bool { return p.SleepUntil(e.now + Time(arg%16) - 4) })
	case opSleepLoop:
		for f.sub < int(arg>>2%32)+1 {
			f.sub++
			if p.Sleep(Dur(arg % 4)) {
				return true
			}
		}
	case opAtNow:
		e.CallAt(e.now, s.act(tag, arg))
	case opAt:
		e.CallAt(e.now+Time(arg%32), s.act(tag, arg))
	case opPost:
		dst := f.shards[(int(s.e.lp)+1+int(arg>>5))%len(f.shards)]
		e.Post(dst.e, e.now+Time(prog.lookahead)+Time(arg%8), dst.act(tag, arg>>3))
	case opFireAt:
		e.FireAt(e.now+Time(arg%8), s.events[arg>>3%2])
	case opWait:
		return f.once(func() bool { return s.events[arg%2].Wait(p) })
	case opCondWait:
		return f.once(func() bool {
			s.idle.Push(&f.slot)
			return f.slot.Wait(p)
		})
	case opCondWake:
		s.wake()
	case opAcquire:
		return f.once(func() bool { return s.sem.Acquire(p) })
	case opRelease:
		s.sem.Release()
	case opUse:
		return f.once(func() bool {
			_, parked := s.res.Use(p, Dur(arg%8), Dur(arg>>3%4))
			return parked
		})
	case opSpawn:
		slept := false
		f.spawn(e.now, tag, func(c *Proc) {
			if !slept {
				slept = true
				if c.Sleep(Dur(arg % 8)) {
					return
				}
			}
			s.note(tag)
			s.wake()
		})
	case opPanic:
		if arg == 0xff {
			panic(tag)
		}
	}
	return false
}
