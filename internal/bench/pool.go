package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"impacc/internal/core"
)

// pool is the worker pool of a parallel sweep: gate bounds the concurrent
// simulations, and fold serializes adding their results to the shared
// Options.Metrics and Options.Prof aggregates.
type pool struct {
	gate chan struct{}
	fold sync.Mutex
}

// WithJobs returns a copy of the options that runs up to n simulations
// concurrently. Every core run owns a private engine, so sweep points are
// independent; determinism is preserved because results are collected per
// point and emitted in canonical order, and the aggregate folds are
// commutative. n <= 1 (and the zero Options value) stay strictly serial.
func (o Options) WithJobs(n int) Options {
	o.pool = nil
	if n > 1 {
		o.pool = &pool{gate: make(chan struct{}, n)}
	}
	return o
}

// runGated executes one simulation, holding a worker-pool slot for its
// duration, and folds a successful run into the sweep aggregates. Slots
// are taken only around leaf runs — never while fanning out — so nested
// sweeps cannot deadlock the pool and at most Jobs engines ever run at
// once.
func runGated(opt Options, cfg core.Config, prog core.Program) (*core.Report, error) {
	if opt.pool != nil {
		opt.pool.gate <- struct{}{}
		defer func() { <-opt.pool.gate }()
	}
	if opt.Prof != nil && cfg.Trace == nil {
		cfg.Trace = core.NewTracer()
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := rt.Execute(prog)
	if err != nil {
		if st := rt.Stall(); st != nil {
			err = fmt.Errorf("%w (flight recorder: parked %s)", err, strings.Join(st.ParkedRanks(), " "))
		}
		return nil, err
	}
	if opt.pool != nil {
		opt.pool.fold.Lock()
		defer opt.pool.fold.Unlock()
	}
	if opt.Metrics != nil {
		opt.Metrics.Merge(rt.Metrics())
	}
	if opt.Prof != nil {
		opt.Prof.Add(rep.Prof)
	}
	return rep, nil
}

// parMap applies f to every item, concurrently when the options carry a
// worker pool, and returns the results in item order. Errors are reported
// deterministically: the lowest-index failure wins. The serial path (no
// pool) short-circuits on the first error, exactly like the historical
// loops.
func parMap[T, R any](opt Options, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if opt.pool == nil || len(items) < 2 {
		for i, it := range items {
			r, err := f(i, it)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = f(i, items[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flatten concatenates row chunks produced by a parMap fan-out.
func flatten[R any](chunks [][]R) []R {
	var out []R
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// RunResult is one experiment's buffered outcome from RunMany.
type RunResult struct {
	Exp    Experiment
	Output []byte
	// CSV holds the records Exp.Run returned: the same rows as Output,
	// header first; nil for table1 and fig2.
	CSV  [][]string
	Wall time.Duration
	Err  error
}

// RunMany executes the experiments — concurrently when the options carry a
// worker pool — buffering each one's output and returning results in the
// given (canonical) order, so a parallel run prints byte-identically to a
// serial one.
func RunMany(exps []Experiment, opt Options) []RunResult {
	// f never fails: each experiment's error stays in its own result.
	out, _ := parMap(opt, exps, func(_ int, e Experiment) (RunResult, error) {
		var buf bytes.Buffer
		//impacc:allow-walltime operator-facing progress timing (RunResult.Wall); never enters simulation state or output bytes
		start := time.Now()
		recs, err := e.Run(&buf, opt)
		//impacc:allow-walltime operator-facing progress timing; the Wall field is excluded from canonical output
		return RunResult{Exp: e, Output: buf.Bytes(), CSV: recs, Wall: time.Since(start), Err: err}, nil
	})
	return out
}
