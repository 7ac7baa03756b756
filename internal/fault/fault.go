// Package fault is the deterministic fault-injection subsystem: a seeded
// plan of link degradations, link/RDMA flaps, NIC send stalls, compute
// stragglers, and transient device-copy failures, layered on the sim
// engine's virtual clock. All randomness forks from sim.NewRNG, so a run
// under chaos is exactly as reproducible as a healthy one — the same seed
// and spec produce byte-identical reports and profiles, serial or parallel.
//
// A Spec is the immutable, parseable description (the -chaos flag); a Plan
// is one run's instantiation of it, carrying the per-node random streams
// and telemetry counters. The consuming layers (topo.Fabric, msg.Hub,
// device.Runtime, core.Task) each see the Plan through a narrow interface
// of their own, so no package below core imports this one.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

// InjectedTotal is the telemetry counter family counting injected fault
// events, labeled by kind (degrade, linkdown, rdmadown, stall, straggle,
// copyfail) and node index.
const InjectedTotal = "fault_injected_total"

var injected = telemetry.NewFamily(InjectedTotal, "injected fault events by kind and node",
	telemetry.KindCounter, "kind", "node")

// Default resilience parameters, used when the spec leaves them unset.
const (
	// DefaultTimeout bounds how long a posted internode receive waits for
	// its message before failing with a timeout error.
	DefaultTimeout = 500 * sim.Millisecond
	// DefaultRetries bounds send re-attempts across a down link.
	DefaultRetries = 8
	// DefaultBackoff is the first retry delay; each further attempt
	// doubles it (deterministic exponential backoff).
	DefaultBackoff = 100 * sim.Microsecond
	// DefaultCopyRetries bounds re-attempts of a transiently failing
	// device copy.
	DefaultCopyRetries = 3
)

// window is a half-open virtual-time interval [Start, End); End <= 0 means
// "until the end of the run".
type window struct {
	Start, End sim.Time
}

func (w window) contains(t sim.Time) bool {
	return t >= w.Start && (w.End <= 0 || t < w.End)
}

// degradeRule multiplies the NIC occupancy of one node while active.
type degradeRule struct {
	node   int // -1 = every node
	factor float64
	win    window
}

// flapRule takes a node's link (or only its RDMA capability) down for Down
// out of every Period, with a deterministic per-node phase drawn at plan
// creation.
type flapRule struct {
	node     int // -1 = every node
	period   sim.Dur
	down     sim.Dur
	rdmaOnly bool
}

// stallRule adds an extra injection delay to a fraction of one node's sends.
type stallRule struct {
	node int // -1 = every node
	prob float64
	dur  sim.Dur
}

// straggleRule stretches a node's host compute by factor while active.
type straggleRule struct {
	node   int // -1 = every node
	factor float64
	win    window
}

// copyFailRule makes a fraction of a node's device copies transiently fail.
type copyFailRule struct {
	node int // -1 = every node
	prob float64
}

// Spec is the immutable description of a fault plan plus the resilience
// parameters of the runtime under it. Parse one with ParseSpec; the zero
// value injects nothing.
type Spec struct {
	// Seed drives every random draw of the plan, independently of the
	// run's own seed.
	Seed uint64

	degrades  []degradeRule
	flaps     []flapRule
	stalls    []stallRule
	straggles []straggleRule
	copyFails []copyFailRule

	timeout sim.Dur
	retries int
	backoff sim.Dur
}

// String renders the spec in a canonical parseable form: rules grouped in a
// fixed kind order (degrade, flap/rdmaflap, stall, straggle, copyfail),
// original relative order preserved within each group, then the explicitly
// set resilience knobs. ParseSpec(s.String()) reproduces s exactly for
// every rule kind and knob — see TestSpecStringRoundTrip — which is what
// lets chaos specs participate in content-addressed cache keys and be
// echoed verbatim in job status.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	node := func(n int) string {
		if n < 0 {
			return "*"
		}
		return strconv.Itoa(n)
	}
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	win := func(w window) string {
		switch {
		case w.End > 0:
			return ":" + sim.FormatDur(sim.Dur(w.Start)) + ":" + sim.FormatDur(sim.Dur(w.End))
		case w.Start > 0:
			return ":" + sim.FormatDur(sim.Dur(w.Start))
		default:
			return ""
		}
	}
	var rules []string
	for _, d := range s.degrades {
		rules = append(rules, "degrade="+node(d.node)+":"+num(d.factor)+win(d.win))
	}
	for _, f := range s.flaps {
		name := "flap"
		if f.rdmaOnly {
			name = "rdmaflap"
		}
		rules = append(rules, name+"="+node(f.node)+":"+sim.FormatDur(f.period)+":"+sim.FormatDur(f.down))
	}
	for _, st := range s.stalls {
		rules = append(rules, "stall="+node(st.node)+":"+num(st.prob)+":"+sim.FormatDur(st.dur))
	}
	for _, st := range s.straggles {
		rules = append(rules, "straggle="+node(st.node)+":"+num(st.factor)+win(st.win))
	}
	for _, c := range s.copyFails {
		rules = append(rules, "copyfail="+node(c.node)+":"+num(c.prob))
	}
	if s.timeout > 0 {
		rules = append(rules, "timeout="+sim.FormatDur(s.timeout))
	}
	if s.retries > 0 {
		rules = append(rules, "retries="+strconv.Itoa(s.retries))
	}
	if s.backoff > 0 {
		rules = append(rules, "backoff="+sim.FormatDur(s.backoff))
	}
	return strconv.FormatUint(s.Seed, 10) + ":" + strings.Join(rules, ",")
}

// Timeout is the per-command internode receive timeout.
func (s *Spec) Timeout() sim.Dur {
	if s.timeout > 0 {
		return s.timeout
	}
	return DefaultTimeout
}

// Retries is the send retry budget across a down link.
func (s *Spec) Retries() int {
	if s.retries > 0 {
		return s.retries
	}
	return DefaultRetries
}

// Backoff is the first retry delay (doubling per attempt).
func (s *Spec) Backoff() sim.Dur {
	if s.backoff > 0 {
		return s.backoff
	}
	return DefaultBackoff
}

// parseDur parses a duration literal like 250ns, 10us, 3ms, 1.5s into
// virtual time, via the shared grammar in sim (the same one FormatDur
// inverts, so canonical String() output always re-parses).
func parseDur(s string) (sim.Dur, error) {
	d, err := sim.ParseDur(s)
	if err != nil {
		return 0, fmt.Errorf("fault: bad duration %q", s)
	}
	return d, nil
}

// parseNode parses a node selector: * for every node, else an index.
func parseNode(s string) (int, error) {
	if s == "*" {
		return -1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("fault: bad node selector %q (index or *)", s)
	}
	return n, nil
}

// parseWindow parses the optional [START:END] tail of a rule; missing
// fields mean "whole run".
func parseWindow(args []string) (window, error) {
	var w window
	if len(args) >= 1 {
		d, err := parseDur(args[0])
		if err != nil {
			return w, err
		}
		w.Start = sim.Time(d)
	}
	if len(args) >= 2 {
		d, err := parseDur(args[1])
		if err != nil {
			return w, err
		}
		w.End = sim.Time(d)
		if w.End <= w.Start {
			return w, fmt.Errorf("fault: window end %v not after start %v", args[1], args[0])
		}
	}
	return w, nil
}

// ParseSpec parses "SEED:rule,rule,...". Rules (NODE is an index or *):
//
//	degrade=NODE:FACTOR[:START[:END]]   NIC bandwidth divided by FACTOR
//	flap=NODE:PERIOD:DOWN               link fully down DOWN per PERIOD
//	rdmaflap=NODE:PERIOD:DOWN           GPUDirect RDMA down DOWN per PERIOD
//	stall=NODE:PROB:DUR                 fraction PROB of sends stall DUR
//	straggle=NODE:FACTOR[:START[:END]]  host compute stretched by FACTOR
//	copyfail=NODE:PROB                  fraction PROB of device copies fail
//	timeout=DUR                         internode receive timeout
//	retries=N                           send retry budget
//	backoff=DUR                         first retry delay (doubles)
//
// Durations take ns/us/ms/s suffixes. Example:
//
//	8:degrade=*:4:1ms,rdmaflap=1:2ms:500us,straggle=0:1.5,retries=6
func ParseSpec(text string) (*Spec, error) {
	seedStr, rules, ok := strings.Cut(text, ":")
	if !ok {
		return nil, fmt.Errorf("fault: spec %q must be SEED:rule,rule,...", text)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fault: bad seed %q: %v", seedStr, err)
	}
	sp := &Spec{Seed: seed}
	for _, rule := range strings.Split(rules, ",") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		name, argStr, ok := strings.Cut(rule, "=")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q must be name=args", rule)
		}
		args := strings.Split(argStr, ":")
		if err := sp.addRule(name, args); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// addRule parses one name=args rule into the spec.
func (sp *Spec) addRule(name string, args []string) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("fault: %s needs at least %d args, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "degrade", "straggle":
		if err := need(2); err != nil {
			return err
		}
		node, err := parseNode(args[0])
		if err != nil {
			return err
		}
		factor, err := strconv.ParseFloat(args[1], 64)
		if err != nil || factor < 1 {
			return fmt.Errorf("fault: %s factor %q must be >= 1", name, args[1])
		}
		win, err := parseWindow(args[2:])
		if err != nil {
			return err
		}
		if name == "degrade" {
			sp.degrades = append(sp.degrades, degradeRule{node: node, factor: factor, win: win})
		} else {
			sp.straggles = append(sp.straggles, straggleRule{node: node, factor: factor, win: win})
		}
	case "flap", "rdmaflap":
		if err := need(3); err != nil {
			return err
		}
		node, err := parseNode(args[0])
		if err != nil {
			return err
		}
		period, err := parseDur(args[1])
		if err != nil {
			return err
		}
		down, err := parseDur(args[2])
		if err != nil {
			return err
		}
		if down <= 0 || down >= period {
			return fmt.Errorf("fault: %s down %v must be in (0, period %v)", name, args[2], args[1])
		}
		sp.flaps = append(sp.flaps, flapRule{node: node, period: period, down: down, rdmaOnly: name == "rdmaflap"})
	case "stall":
		if err := need(3); err != nil {
			return err
		}
		node, err := parseNode(args[0])
		if err != nil {
			return err
		}
		prob, err := strconv.ParseFloat(args[1], 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("fault: stall probability %q must be in [0,1]", args[1])
		}
		dur, err := parseDur(args[2])
		if err != nil {
			return err
		}
		sp.stalls = append(sp.stalls, stallRule{node: node, prob: prob, dur: dur})
	case "copyfail":
		if err := need(2); err != nil {
			return err
		}
		node, err := parseNode(args[0])
		if err != nil {
			return err
		}
		prob, err := strconv.ParseFloat(args[1], 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("fault: copyfail probability %q must be in [0,1]", args[1])
		}
		sp.copyFails = append(sp.copyFails, copyFailRule{node: node, prob: prob})
	case "timeout", "backoff":
		if err := need(1); err != nil {
			return err
		}
		d, err := parseDur(args[0])
		if err != nil {
			return err
		}
		if d <= 0 {
			return fmt.Errorf("fault: %s must be positive", name)
		}
		if name == "timeout" {
			sp.timeout = d
		} else {
			sp.backoff = d
		}
	case "retries":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return fmt.Errorf("fault: retries %q must be a positive integer", args[0])
		}
		sp.retries = n
	default:
		return fmt.Errorf("fault: unknown rule %q", name)
	}
	return nil
}

// nodeState is one node's instantiated fault state: its private random
// stream (draws happen in deterministic event order, the engine being
// single-threaded) and the per-node phase of every flap rule.
type nodeState struct {
	rng    *sim.RNG
	phases []sim.Dur // one per Spec.flaps entry
}

// Plan is one run's instantiation of a Spec. Create a fresh Plan per run
// (NewRuntime does): plans carry mutable random-stream state and must never
// be shared between concurrent runs.
//
// Injections are counted live in the telemetry registry of the node that
// asked, so each shard writes only its own registry. RDMAUp is asked about
// a remote node by the sending shard; that count lands in the sender's
// registry, and the commutative registry merge (counts add, the stamp keeps
// the latest) yields the same series a single shared registry would hold.
type Plan struct {
	spec  *Spec
	nodes []nodeState
	regs  []*telemetry.Registry // per node: the registry its engine records into
}

// NewPlan instantiates spec for a system with one node per registry, drawing
// per-node streams and flap phases from a master generator seeded with
// spec.Seed. regs[i] is node i's engine registry (nodes sharing an engine
// share it).
func NewPlan(spec *Spec, regs []*telemetry.Registry) *Plan {
	p := &Plan{spec: spec, nodes: make([]nodeState, len(regs)), regs: regs}
	master := sim.NewRNG(spec.Seed)
	for i := range p.nodes {
		ns := &p.nodes[i]
		ns.rng = master.Fork()
		ns.phases = make([]sim.Dur, len(spec.flaps))
		for j, f := range spec.flaps {
			ns.phases[j] = sim.Dur(ns.rng.Intn(int(f.period)))
		}
	}
	return p
}

// count records one injected fault of kind on node, asked by node from, in
// from's registry (stamped by that registry's clock: the asking engine's).
func (p *Plan) count(kind string, from, node int) {
	p.regs[from].Counter(injected, kind, strconv.Itoa(node)).Inc()
}

// applies reports whether a rule's node selector covers node.
func applies(ruleNode, node int) bool { return ruleNode < 0 || ruleNode == node }

// flapDown reports whether flap rule j holds node's link down at time at.
func (p *Plan) flapDown(j int, node int, at sim.Time) bool {
	f := p.spec.flaps[j]
	if !applies(f.node, node) {
		return false
	}
	pos := (sim.Dur(at) + p.nodes[node].phases[j]) % f.period
	return pos < f.down
}

// LinkFactor returns the occupancy multiplier (>= 1) for NIC transfers
// injected by node at the given time — the degraded-link model. Counted
// once per queried transfer while a degradation is active.
func (p *Plan) LinkFactor(node int, at sim.Time) float64 {
	factor := 1.0
	for _, d := range p.spec.degrades {
		if applies(d.node, node) && d.win.contains(at) {
			factor *= d.factor
		}
	}
	if factor > 1 {
		p.count("degrade", node, node)
	}
	return factor
}

// SendStall draws whether one send from node stalls at the NIC, returning
// the extra injection delay (0 = no stall). One draw per configured stall
// rule per send, in deterministic event order.
func (p *Plan) SendStall(node int) sim.Dur {
	var total sim.Dur
	for _, s := range p.spec.stalls {
		if !applies(s.node, node) {
			continue
		}
		if p.nodes[node].rng.Float64() < s.prob {
			total += s.dur
		}
	}
	if total > 0 {
		p.count("stall", node, node)
	}
	return total
}

// LinkUp reports whether node's network link is up at time at (full-link
// flap rules only).
func (p *Plan) LinkUp(node int, at sim.Time) bool {
	for j, f := range p.spec.flaps {
		if !f.rdmaOnly && p.flapDown(j, node, at) {
			p.count("linkdown", node, node)
			return false
		}
	}
	return true
}

// RDMAUp reports, to node from, whether node's GPUDirect RDMA capability is
// up at time at. Both full-link and RDMA-only flaps take it down; the message
// layer reroutes staged copies while it is down.
func (p *Plan) RDMAUp(from, node int, at sim.Time) bool {
	for j := range p.spec.flaps {
		if p.flapDown(j, node, at) {
			p.count("rdmadown", from, node)
			return false
		}
	}
	return true
}

// StraggleFactor returns the host-compute stretch factor (>= 1) for node at
// time at — the straggler model.
func (p *Plan) StraggleFactor(node int, at sim.Time) float64 {
	factor := 1.0
	for _, s := range p.spec.straggles {
		if applies(s.node, node) && s.win.contains(at) {
			factor *= s.factor
		}
	}
	if factor > 1 {
		p.count("straggle", node, node)
	}
	return factor
}

// CopyFail draws whether one device copy attempt on node transiently fails.
func (p *Plan) CopyFail(node int) bool {
	failed := false
	for _, c := range p.spec.copyFails {
		if applies(c.node, node) && p.nodes[node].rng.Float64() < c.prob {
			failed = true
		}
	}
	if failed {
		p.count("copyfail", node, node)
	}
	return failed
}

// CopyRetries caps re-attempts of a transiently failing device copy.
func (p *Plan) CopyRetries() int { return DefaultCopyRetries }
