package sim

import (
	"encoding/json"
	"io"
)

// The flight recorder answers "what was this run doing just before it
// died?" for runs that end abnormally — cancelled, capped by a
// deadline/event budget, deadlocked, or killed by the cross-shard
// causality panic. Each armed engine keeps a fixed-size ring of the most
// recent dispatched event stamps; dumping the group yields those rings
// plus the parked-process table per shard. Recording only ever touches
// engine-local state from the engine's own dispatch loop, so it costs a
// few stores per event and nothing when disarmed.

// EventStamp is one dispatched event as the flight recorder saw it: the
// canonical (at, seq) position, the scheduling shard, and the kind — the
// resumed process's name, or "fn" for inline engine callbacks.
type EventStamp struct {
	Kind string `json:"kind"`
	LP   int    `json:"lp"`
	AtNs int64  `json:"at_ns"`
	Seq  uint64 `json:"seq"`
}

// ParkedProc is one blocked process at dump time.
type ParkedProc struct {
	Name      string `json:"name"`
	BlockedOn string `json:"blocked_on"`
}

// ShardFlight is one shard's slice of a stall dump.
type ShardFlight struct {
	LP     int    `json:"lp"`
	NowNs  int64  `json:"now_ns"`
	Events uint64 `json:"events"`
	// Recent lists the shard's last dispatched events, oldest first.
	Recent []EventStamp `json:"recent,omitempty"`
	// Parked lists every unfinished process and what it waits on, in
	// spawn order.
	Parked []ParkedProc `json:"parked,omitempty"`
}

// StallReport is the flight recorder's dump: why the run stopped, where
// the global clock stood, and each shard's recent history and blocked
// processes. Its content is a pure function of the simulation for
// deterministic stop reasons (limits, deadlock, causality); only a
// wall-clock cancel makes the truncation point — and hence the dump —
// nondeterministic.
type StallReport struct {
	Reason string        `json:"reason"`
	Error  string        `json:"error,omitempty"`
	AtNs   int64         `json:"at_ns"`
	Events uint64        `json:"events"`
	Shards []ShardFlight `json:"shards"`
}

// WriteJSON emits the report as indented JSON (the stall.json format).
func (r *StallReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// ParkedRanks returns the names of every parked process across shards, in
// shard order — the quick "who is stuck" summary tools print.
func (r *StallReport) ParkedRanks() []string {
	var out []string
	for i := range r.Shards {
		for _, p := range r.Shards[i].Parked {
			out = append(out, p.Name)
		}
	}
	return out
}

// ArmFlight sizes the engine's flight ring to the n most recent events
// (n <= 0 disarms). Call before Run.
func (e *Engine) ArmFlight(n int) {
	if n <= 0 {
		e.flight = nil
		return
	}
	e.flight = make([]EventStamp, 0, n)
	e.flightHead = 0
}

// recordFlight appends one dispatched event to the ring. Called from the
// dispatch loop only when armed.
func (e *Engine) recordFlight(at Time, dl uint64, seq uint64, proc *Proc) {
	kind := "fn"
	if proc != nil {
		kind = proc.Name
	}
	s := EventStamp{Kind: kind, LP: int(int32(uint32(dl))), AtNs: int64(at), Seq: seq}
	if len(e.flight) < cap(e.flight) {
		e.flight = append(e.flight, s)
		return
	}
	e.flight[e.flightHead] = s
	e.flightHead++
	if e.flightHead == len(e.flight) {
		e.flightHead = 0
	}
}

// FlightShard snapshots the engine's ring (oldest first) and parked
// processes. Call only with the engine quiescent.
func (e *Engine) FlightShard() ShardFlight {
	sf := ShardFlight{LP: int(e.lp), NowNs: int64(e.now), Events: e.dispatched}
	if n := len(e.flight); n > 0 {
		sf.Recent = make([]EventStamp, 0, n)
		sf.Recent = append(sf.Recent, e.flight[e.flightHead:]...)
		sf.Recent = append(sf.Recent, e.flight[:e.flightHead]...)
	}
	for _, p := range e.procs {
		if p != nil && !p.done {
			sf.Parked = append(sf.Parked, ParkedProc{Name: p.Name, BlockedOn: p.blockedOn()})
		}
	}
	return sf
}

// ArmFlight arms every shard's flight ring with n entries. Call before Run.
func (g *ShardGroup) ArmFlight(n int) {
	g.flightCap = n
	for _, e := range g.engines {
		e.ArmFlight(n)
	}
}

// Stall returns the flight dump captured when an armed group's Run ended
// abnormally (nil after a clean run, or when disarmed). Run snapshots it
// before unwinding, so the parked table reflects the stop instant rather
// than the emptied post-unwind state.
func (g *ShardGroup) Stall() *StallReport { return g.stall }

// captureStall assembles the stall dump inside Run, before processes are
// unwound. reason is derived from the error type.
func (g *ShardGroup) captureStall(err error) {
	if g.flightCap <= 0 || err == nil {
		return
	}
	reason := "panic"
	switch e := err.(type) {
	case *CancelError:
		reason = "cancel"
	case *DeadlockError:
		reason = "deadlock"
	case *LimitError:
		if e.Resource == "vtime" {
			reason = "vtime-limit"
		} else {
			reason = "event-limit"
		}
	case *PanicError:
		if e.Proc == "shard-exchange" {
			reason = "causality"
		}
	}
	r := &StallReport{Reason: reason, Error: err.Error(),
		AtNs: int64(g.MaxNow()), Events: g.Events()}
	for _, e := range g.engines {
		r.Shards = append(r.Shards, e.FlightShard())
	}
	g.stall = r
}
