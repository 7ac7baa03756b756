package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
)

// refExec is the reference executor FuzzShardGroup checks the engine
// against: one heap of events keyed (at, depth, lp, seq), a sequence
// counter per LP, and no windows or shards. It shares only the decoded
// program and its op interpretation (fuzzRun) with the engine run; its
// events, processes and primitives are its own, and every process is a
// resumable fuzzRun whatever kind the engine run gives it.
//
// It runs the program once, to the end, and records the canonical stop
// on the way: the first event that panics, cancels or spends the event
// budget, the first event past the deadline, or the drain. The run goes
// on past that stop, with a panicked LP halted, because a window lets
// other shards overshoot it; the engine's logs must prefix that full run.
type refExec struct {
	prog  *fuzzProgram
	lps   []*refLP
	queue refQueue
	// depth is the depth of the event being dispatched, -1 between.
	depth int32
	total uint64
	// What the dispatch in progress did.
	panicked  *PanicError
	cancelled bool
	verdict   bool
	res       refResult
}

// refEvent is one scheduled event: its key, the LP it runs on and what it
// resumes or calls.
type refEvent struct {
	at    Time
	depth uint32
	lp    int // the LP that scheduled it
	seq   uint64
	on    int
	proc  *refProc
	fn    func()
}

// refQueue is the executor's one heap, in (at, depth, lp, seq) order.
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	if a.lp != b.lp {
		return a.lp < b.lp
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// refLP is one LP's clock, counters, primitives and dispatch log.
type refLP struct {
	seq, dispatched uint64
	now             Time
	fired           [2]bool
	waiting         [2][]*refProc
	idle            []*refProc
	avail           int
	queued          []*refProc // semaphore waiters, oldest first
	freeAt          Time
	procs           []*refProc
	halted          bool
	log             strings.Builder
	times           []Time
}

// refProc is one process: its run and what it waits on while parked.
type refProc struct {
	run  *fuzzRun
	on   string
	done bool
}

// refResult is what the reference run shows and what the engine must
// match (see admits).
type refResult struct {
	full  []string // each LP's log of the whole run
	times [][]Time // the time of each entry of full
	// The canonical stop: its error, MaxNow, each LP's log length there,
	// and whether it falls between two events (a drain, deadlock or
	// deadline), where no window can overshoot it.
	stopped bool
	err     error
	maxNow  Time
	stop    []int
	exact   bool
	// check is the first verdict, when it came before the stop.
	check *refCheck
}

// refCheck is a verdict's time and each LP's log length once its instant
// is over, where the earliest barrier that can stop on it falls.
type refCheck struct {
	at   Time
	lens []int
}

// reference runs the program on the reference executor.
func (prog *fuzzProgram) reference() *refResult {
	x := &refExec{prog: prog, depth: -1}
	for range prog.shards {
		x.lps = append(x.lps, &refLP{avail: 1})
	}
	for i, pr := range prog.procs {
		x.start(pr.shard, &fuzzRun{prog: prog, name: fmt.Sprint("p", i), ops: pr.ops}, pr.start)
	}
	for x.queue.Len() > 0 {
		ev := heap.Pop(&x.queue).(*refEvent)
		if prog.deadline != 0 && ev.at > prog.deadline {
			// No window runs past the deadline, so the full run ends too.
			x.stopWith(&LimitError{Resource: "vtime", Limit: int64(prog.deadline), At: x.maxNow()}, true)
			break
		}
		l := x.lps[ev.on]
		if l.halted {
			continue
		}
		if c := x.res.check; c != nil && c.lens == nil && ev.at > c.at {
			c.lens = x.lens()
		}
		l.now, x.depth = ev.at, int32(ev.depth)
		l.dispatched++
		x.total++
		if ev.proc != nil {
			x.resume(ev.on, ev.proc)
		} else {
			x.call(ev.fn)
		}
		x.depth = -1
		if x.verdict && x.res.check == nil && !x.res.stopped {
			x.res.check = &refCheck{at: l.now}
		}
		switch {
		case x.panicked != nil:
			l.halted = true
			x.stopWith(x.panicked, false)
		case x.cancelled:
			x.stopWith(&CancelError{At: l.now}, true) // only a one-shard run cancels
		case x.total == prog.maxEvents:
			x.stopWith(&LimitError{Resource: "events", Limit: int64(prog.maxEvents), At: l.now}, false)
		}
		x.panicked, x.cancelled, x.verdict = nil, false, false
	}
	var err error
	if blocked := x.blocked(); len(blocked) > 0 {
		err = &DeadlockError{Time: x.maxNow(), Blocked: blocked}
	}
	if c := x.res.check; c != nil {
		err = checkErr(c.at)
		if c.lens == nil {
			c.lens = x.lens()
		}
	}
	x.stopWith(err, true)
	for _, l := range x.lps {
		x.res.full = append(x.res.full, l.log.String())
		x.res.times = append(x.res.times, l.times)
	}
	return &x.res
}

// stopWith records the canonical stop, if none came before.
func (x *refExec) stopWith(err error, exact bool) {
	if x.res.stopped {
		return
	}
	x.res.stopped, x.res.err, x.res.exact = true, err, exact
	x.res.maxNow, x.res.stop = x.maxNow(), x.lens()
}

// lens is each LP's log length.
func (x *refExec) lens() []int {
	var n []int
	for _, l := range x.lps {
		n = append(n, l.log.Len())
	}
	return n
}

// maxNow is the latest LP clock.
func (x *refExec) maxNow() Time {
	var t Time
	for _, l := range x.lps {
		t = max(t, l.now)
	}
	return t
}

// blocked lists every unfinished process and what it waits on, sorted.
func (x *refExec) blocked() []string {
	var b []string
	for _, l := range x.lps {
		for _, p := range l.procs {
			if !p.done {
				b = append(b, fmt.Sprintf("%s (on %s)", p.run.name, p.on))
			}
		}
	}
	sort.Strings(b)
	return b
}

// schedule queues an event on LP lp at t, clamped to its clock: a
// same-instant event is one level deeper than the one dispatching.
func (x *refExec) schedule(lp int, t Time, p *refProc, fn func()) {
	l := x.lps[lp]
	t = max(t, l.now)
	l.seq++
	var depth uint32
	if t == l.now {
		depth = uint32(x.depth + 1)
	}
	heap.Push(&x.queue, &refEvent{at: t, depth: depth, lp: lp, seq: l.seq, on: lp, proc: p, fn: fn})
}

// post queues fn on LP dst at t, stamped with the sender's (lp, seq) at
// depth 0, as a cross-shard Post lands. A post below the lookahead is
// dropped and fails the dispatch, which goes on to its end.
func (x *refExec) post(src, dst int, t Time, fn func()) {
	if src == dst {
		x.schedule(src, t, nil, fn)
		return
	}
	l := x.lps[src]
	if t < l.now+Time(x.prog.lookahead) {
		x.fail(&PanicError{Proc: postProc, Value: lookaheadViolation(int32(src), int32(dst), t, l.now, x.prog.lookahead)})
		return
	}
	l.seq++
	heap.Push(&x.queue, &refEvent{at: t, lp: src, seq: l.seq, on: dst, fn: fn})
}

// start registers run as a process on LP lp whose first resume is at t.
func (x *refExec) start(lp int, run *fuzzRun, t Time) {
	p := &refProc{run: run}
	run.sys = &refSys{x: x, l: lp, p: p}
	x.lps[lp].procs = append(x.lps[lp].procs, p)
	x.schedule(lp, t, p, nil)
}

// resume runs p until it parks or finishes; a panic finishes it and halts
// its LP.
func (x *refExec) resume(lp int, p *refProc) {
	if p.done {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			x.fail(&PanicError{Proc: p.run.name, Value: r})
			p.done = true
		}
	}()
	p.on = ""
	if !p.run.body() {
		p.done = true
	}
}

// call runs a callback; a panic fails the dispatch, naming "fn" as the
// engine's flight ring does.
func (x *refExec) call(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			x.fail(&PanicError{Proc: "fn", Value: r})
		}
	}()
	fn()
}

// fail records the dispatch's first failure.
func (x *refExec) fail(pe *PanicError) {
	if x.panicked == nil {
		x.panicked = pe
	}
}

// note logs one dispatch on LP lp, as fuzzShard.note does.
func (x *refExec) note(lp int, what string) {
	l := x.lps[lp]
	fmt.Fprintf(&l.log, "%s@%d/%d/%d/%d;", what, l.now, x.depth, l.seq, l.dispatched)
	l.times = append(l.times, l.now)
}

// act is the callback of a callback op on LP lp, as fuzzShard.act.
func (x *refExec) act(lp int, tag string, arg byte) func() {
	return func() {
		x.note(lp, tag)
		switch arg % 4 {
		case 1:
			x.fire(lp, int(arg>>2%2))
		case 2:
			x.wake(lp)
		case 3:
			x.release(lp)
		}
	}
}

// fire fires one of LP lp's events, waking its waiters in arrival order.
func (x *refExec) fire(lp, ev int) {
	l := x.lps[lp]
	if l.fired[ev] {
		return
	}
	l.fired[ev] = true
	for _, p := range l.waiting[ev] {
		x.schedule(lp, l.now, p, nil)
	}
	l.waiting[ev] = nil
}

// wake resumes LP lp's longest-idle process, if any.
func (x *refExec) wake(lp int) {
	l := x.lps[lp]
	if len(l.idle) > 0 {
		p := l.idle[0]
		l.idle = l.idle[1:]
		x.schedule(lp, l.now, p, nil)
	}
}

// release hands LP lp's semaphore permit to its longest waiter, or returns
// it.
func (x *refExec) release(lp int) {
	l := x.lps[lp]
	if len(l.queued) == 0 {
		l.avail++
		return
	}
	p := l.queued[0]
	l.queued = l.queued[1:]
	x.schedule(lp, l.now, p, nil)
}

// refSys is a process's fuzzSys on the reference executor.
type refSys struct {
	x *refExec
	l int
	p *refProc
}

func (r *refSys) lp() int                { return r.l }
func (r *refSys) lpState() *refLP        { return r.x.lps[r.l] }
func (r *refSys) now() Time              { return r.lpState().now }
func (r *refSys) sleep(d Dur) bool       { return r.sleepFor(r.now()+Time(d), "sleep") }
func (r *refSys) sleepUntil(t Time) bool { return r.sleepFor(t, "sleepUntil") }

// park records what the process waits on; a reference process always
// parks for real.
func (r *refSys) park(on string) bool {
	r.p.on = on
	return true
}

func (r *refSys) sleepFor(t Time, kind string) bool {
	r.x.schedule(r.l, t, r.p, nil)
	return r.park(kind)
}
func (r *refSys) callAt(t Time, tag string, arg byte) {
	r.x.schedule(r.l, t, nil, r.x.act(r.l, tag, arg))
}
func (r *refSys) panicAt(t Time, tag string) {
	r.x.schedule(r.l, t, nil, func() { r.x.note(r.l, tag); panic(tag) })
}
func (r *refSys) post(dst int, t Time, tag string, arg byte) {
	r.x.post(r.l, dst, t, r.x.act(dst, tag, arg))
}
func (r *refSys) fireAt(t Time, ev int) {
	r.x.schedule(r.l, t, nil, func() { r.x.fire(r.l, ev) })
}
func (r *refSys) wait(ev int) bool {
	l := r.lpState()
	if l.fired[ev] {
		return false
	}
	l.waiting[ev] = append(l.waiting[ev], r.p)
	return r.park(fmt.Sprint("event:ev", ev))
}
func (r *refSys) idle() bool {
	l := r.lpState()
	l.idle = append(l.idle, r.p)
	return r.park("cond:c")
}
func (r *refSys) wake() { r.x.wake(r.l) }
func (r *refSys) acquire() bool {
	l := r.lpState()
	if l.avail > 0 && len(l.queued) == 0 {
		l.avail--
		return false
	}
	l.queued = append(l.queued, r.p)
	return r.park("sem:s")
}
func (r *refSys) release() { r.x.release(r.l) }
func (r *refSys) use(occupy, tail Dur) bool {
	l := r.lpState()
	l.freeAt = max(l.now, l.freeAt) + Time(occupy)
	return r.sleepFor(l.freeAt+Time(tail), "sleepUntil")
}
func (r *refSys) spawn(c *fuzzRun) { r.x.start(r.l, c, r.now()) }
func (r *refSys) cancel()          { r.x.cancelled = true }
func (r *refSys) verdict()         { r.x.verdict = true }
func (r *refSys) note(what string) { r.x.note(r.l, what) }

// admits reports why an engine run is not one the reference allows, or
// nil. Every shard's log must prefix the reference's full log of its LP,
// and at every window horizon every entry before it must already be
// logged. The run must then end in the canonical stop: exactly, with the
// same logs and MaxNow, when the stop falls between two events; with at
// least the logs up to the stop and MaxNow no earlier, when a window may
// run other shards past it (a panic or the event budget). The Check
// hook's error depends on where barriers fall, so the reference admits it
// without placing it, for a verdict before the stop and with at least the
// logs of the verdict's instant.
func (r *refResult) admits(got *fuzzOutcome) error {
	for i, log := range got.logs {
		if !strings.HasPrefix(r.full[i], log) {
			return fmt.Errorf("shard %d logged\n  %s\nwhich does not prefix the reference's\n  %s", i, log, r.full[i])
		}
	}
	last := Time(-1)
	for _, m := range got.marks {
		if m.horizon < last {
			return fmt.Errorf("horizon %d follows horizon %d", m.horizon, last)
		}
		last = m.horizon
		for i, n := range m.lens {
			if before := sort.Search(len(r.times[i]), func(k int) bool { return r.times[i][k] >= m.horizon }); before > n {
				return fmt.Errorf("at horizon %d shard %d had logged %d entries, but %d lie before it", m.horizon, i, n, before)
			}
		}
	}
	if r.check != nil && fmt.Sprint(got.err) == checkErr(r.check.at).Error() {
		return r.atLeast(got, r.check.lens)
	}
	if fmt.Sprintf("%T %v", got.err, got.err) != fmt.Sprintf("%T %v", r.err, r.err) {
		return fmt.Errorf("run ended with %T %v, want %T %v", got.err, got.err, r.err, r.err)
	}
	if !r.exact {
		if got.maxNow < r.maxNow {
			return fmt.Errorf("MaxNow %d is before the stop's %d", got.maxNow, r.maxNow)
		}
		return r.atLeast(got, r.stop)
	}
	if got.maxNow != r.maxNow {
		return fmt.Errorf("MaxNow %d, want %d", got.maxNow, r.maxNow)
	}
	for i, log := range got.logs {
		if len(log) != r.stop[i] {
			return fmt.Errorf("shard %d logged\n  %s\nwant\n  %s", i, log, r.full[i][:r.stop[i]])
		}
	}
	return nil
}

// atLeast reports a shard whose log is shorter than lens says.
func (r *refResult) atLeast(got *fuzzOutcome, lens []int) error {
	for i, log := range got.logs {
		if len(log) < lens[i] {
			return fmt.Errorf("shard %d stopped at\n  %s\nbefore the reference's\n  %s", i, log, r.full[i][:lens[i]])
		}
	}
	return nil
}
