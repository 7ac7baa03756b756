package apps

import (
	"cmp"
	"fmt"
	"slices"

	"impacc/internal/core"
	"impacc/internal/fault"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// Spec is the one run grammar of the bundled applications: impacc-run's
// flag set and, with its JSON tags, the wire form of an impacc-serve job.
// Compile turns it into a runnable configuration. Compile reads every field
// literally; WithDefaults applies the job API's zero-means-default rule
// first.
type Spec struct {
	System  string `json:"system"`            // preset selector: psg, beacon:N, titan:N, hetero, fattree:k, dragonfly:g,a,p, gemini:X,Y,Z
	App     string `json:"app"`               // dgemm, ep, jacobi, lulesh
	Mode    string `json:"mode,omitempty"`    // impacc (default) or legacy
	Style   string `json:"style,omitempty"`   // sync, async, unified (default by mode)
	Tasks   int    `json:"tasks,omitempty"`   // cap task count (0 = one per accelerator)
	Devices string `json:"devices,omitempty"` // device class selection, e.g. "nvidia|xeonphi"
	N       int    `json:"n,omitempty"`       // dgemm/jacobi problem size (default 1024)
	Iters   int    `json:"iters,omitempty"`   // jacobi iterations (default 10)
	Class   string `json:"class,omitempty"`   // EP class (default A)
	Edge    int    `json:"edge,omitempty"`    // lulesh per-task mesh edge (default 16)
	Steps   int    `json:"steps,omitempty"`   // lulesh steps (default 5)
	Backed  bool   `json:"backed,omitempty"`  // attach real storage
	Verify  bool   `json:"verify,omitempty"`  // verify against serial references (forces backed)
	Seed    uint64 `json:"seed,omitempty"`    // 0 = 2016, the paper's year
	Chaos   string `json:"chaos,omitempty"`   // deterministic fault spec, seed:rule,...
	// ParSim is the intra-run simulation worker count (impacc-run -par-sim).
	// It only changes wall-clock speed — every worker count produces
	// byte-identical artifacts — so it is deliberately NOT part of a job's
	// content address: serial and parallel submissions of the same job
	// coalesce onto one cache entry.
	ParSim int `json:"par_sim,omitempty"`
	// Lean turns on the memory-lean big-run mode (impacc-run -lean): above
	// 256 ranks per-rank telemetry and heartbeats aggregate. Lean changes
	// what a big run reports, so unlike ParSim it IS part of the content
	// address (a lean and a non-lean submission are different jobs).
	Lean bool `json:"lean,omitempty"`
	// ProgressEvery is the virtual-time heartbeat interval for a job's
	// /events feed, as a duration literal ("250us", "1ms"). Like ParSim it
	// is an observer knob — heartbeats never change simulated bytes — so it
	// too is excluded from the content address. Empty takes the server
	// default.
	ProgressEvery string `json:"progress_every,omitempty"`
}

// Defaults is the one table of default values: WithDefaults fills a job's
// omitted fields from it, and impacc-run starts its flags at it.
var Defaults = Spec{Mode: "impacc", N: 1024, Iters: 10, Class: "A", Edge: 16, Steps: 5, Seed: 2016}

// WithDefaults returns s with every zero field that has an entry in
// Defaults replaced by that entry, so "iters omitted" and "iters: 10" are
// the same job.
func (s Spec) WithDefaults() Spec {
	d := Defaults
	s.Mode = cmp.Or(s.Mode, d.Mode)
	s.N = cmp.Or(s.N, d.N)
	s.Iters = cmp.Or(s.Iters, d.Iters)
	s.Class = cmp.Or(s.Class, d.Class)
	s.Edge = cmp.Or(s.Edge, d.Edge)
	s.Steps = cmp.Or(s.Steps, d.Steps)
	s.Seed = cmp.Or(s.Seed, d.Seed)
	return s
}

// EPClasses lists the EP classes a Spec may name, looked up by Name.
var EPClasses = []EPClass{EPClassS, EPClassW, EPClassA, EPClassB, EPClassC, EPClassD, EPClassE, EPClassT}

// epSampleShift is the EP sample shift of a backed run: execute a sample
// of the pairs, price the full class.
const epSampleShift = 12

// Run is a compiled Spec.
type Run struct {
	// Config has no observers (Trace, Metrics, Progress), Limits or
	// FlightRing set; the front-end attaches its own.
	Config  core.Config
	Program core.Program
	// Identity canonically names the program and its parameters; with
	// Config.Hash it determines every simulated byte.
	Identity string
	// ProgressEvery is the parsed Spec.ProgressEvery (0 when empty).
	ProgressEvery sim.Dur
}

// Compile resolves s against sys. It is pure: the same spec and system
// always compile to the same configuration and identity.
func Compile(s Spec, sys *topo.System) (*Run, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"tasks", s.Tasks}, {"n", s.N}, {"iters", s.Iters}, {"edge", s.Edge}, {"steps", s.Steps}} {
		if f.v < 0 {
			return nil, fmt.Errorf("apps: %s must not be negative (got %d)", f.name, f.v)
		}
	}
	var mode core.Mode
	switch s.Mode {
	case "impacc":
		mode = core.IMPACC
	case "legacy":
		mode = core.Legacy
	default:
		return nil, fmt.Errorf("apps: unknown mode %q (impacc, legacy)", s.Mode)
	}
	style := StyleUnified
	if mode == core.Legacy {
		style = StyleAsync
	}
	if s.Style != "" {
		styles := []Style{StyleSync, StyleAsync, StyleUnified}
		i := slices.IndexFunc(styles, func(st Style) bool { return st.String() == s.Style })
		if i < 0 {
			return nil, fmt.Errorf("apps: unknown style %q (sync, async, unified)", s.Style)
		}
		style = styles[i]
	}
	mask, err := topo.ParseClassMask(s.Devices)
	if err != nil {
		return nil, err
	}
	backed := s.Backed || s.Verify
	r := &Run{Config: core.Config{
		System: sys, Mode: mode, MaxTasks: s.Tasks, DeviceTypes: mask,
		Backed: backed, Seed: s.Seed, JitterPct: 1, Parallel: s.ParSim,
		Lean: s.Lean,
	}}
	if s.Chaos != "" {
		if r.Config.Chaos, err = fault.ParseSpec(s.Chaos); err != nil {
			return nil, err
		}
	}
	if s.ProgressEvery != "" {
		d, err := sim.ParseDur(s.ProgressEvery)
		if err != nil {
			return nil, fmt.Errorf("apps: bad progress_every: %v", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("apps: progress_every must be positive")
		}
		r.ProgressEvery = d
	}
	switch s.App {
	case "dgemm":
		r.Program = DGEMM(DGEMMConfig{N: s.N, Style: style, Verify: s.Verify})
		r.Identity = fmt.Sprintf("app=dgemm;style=%d;n=%d;verify=%t", style, s.N, s.Verify)
	case "ep":
		i := slices.IndexFunc(EPClasses, func(c EPClass) bool { return c.Name == s.Class })
		if i < 0 {
			return nil, fmt.Errorf("apps: unknown EP class %q (S, W, A, B, C, D, E, 64xE)", s.Class)
		}
		shift := 0
		if backed {
			shift = epSampleShift
		}
		r.Program = EP(EPConfig{Class: EPClasses[i], Style: style, SampleShift: shift, Verify: s.Verify})
		r.Identity = fmt.Sprintf("app=ep;style=%d;class=%s;shift=%d;verify=%t", style, s.Class, shift, s.Verify)
	case "jacobi":
		r.Program = Jacobi(JacobiConfig{N: s.N, Iters: s.Iters, Style: style, Verify: s.Verify})
		r.Identity = fmt.Sprintf("app=jacobi;style=%d;n=%d;iters=%d;verify=%t", style, s.N, s.Iters, s.Verify)
	case "lulesh":
		r.Program = LULESH(LULESHConfig{Edge: s.Edge, Steps: s.Steps, Verify: s.Verify})
		r.Identity = fmt.Sprintf("app=lulesh;edge=%d;steps=%d;verify=%t", s.Edge, s.Steps, s.Verify)
	default:
		return nil, fmt.Errorf("apps: unknown app %q (dgemm, ep, jacobi, lulesh)", s.App)
	}
	return r, nil
}
