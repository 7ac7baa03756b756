// Command impacc-serve runs the simulator as a service: an HTTP/JSON API
// that accepts job submissions (system preset, application, mode, seed,
// chaos spec), executes them deterministically on a bounded worker pool,
// and answers repeated submissions from a content-addressed result cache —
// byte-identical to the original run, because runs are pure functions of
// their configuration.
//
// Examples:
//
//	impacc-serve -addr 127.0.0.1:8080
//	curl -X POST localhost:8080/v1/jobs?wait=1 -d '{"system":"beacon:2","app":"jacobi","n":256,"iters":5}'
//	curl localhost:8080/v1/jobs/<key>/report
//	curl localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"impacc/internal/core"
	"impacc/internal/serve"
	"impacc/internal/sim"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the server; split from main so tests can drive the full
// command without spawning a process. It returns once the listener dies.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impacc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers    = fs.Int("workers", 2, "concurrent simulations")
		queueCap   = fs.Int("queue", 16, "admission queue capacity (full queue returns 429)")
		cacheBytes = fs.Int64("cache-bytes", 64<<20, "result cache byte bound (LRU eviction)")
		retryAfter = fs.Int("retry-after", 1, "Retry-After seconds advertised on 429")
		progEvery  = fs.String("progress-every", "1ms", "default virtual-time heartbeat interval for /events feeds (per-job progress_every overrides)")
		flightRing = fs.Int("flight-ring", 64, "per-shard stall flight recorder depth armed on every run")
		maxVTime   = fs.String("max-vtime", "10s", "fail any job past this much virtual time (0 = unlimited)")
		maxEvents  = fs.Int64("max-events", 50_000_000, "fail any job past this many simulation events (0 = unlimited)")
		maxAlloc   = fs.Int64("max-alloc", 1<<31, "fail any job past this many task heap bytes (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	limits, err := core.ParseLimits(*maxVTime, *maxEvents, *maxAlloc)
	if err != nil {
		fmt.Fprintf(stderr, "impacc-serve: %v\n", err)
		return 2
	}

	var every sim.Dur
	if *progEvery != "" {
		d, err := sim.ParseDur(*progEvery)
		if err != nil {
			fmt.Fprintf(stderr, "impacc-serve: progress-every: %v\n", err)
			return 2
		}
		every = d
	}

	srv := serve.New(serve.Config{
		Workers:       *workers,
		QueueCap:      *queueCap,
		CacheBytes:    *cacheBytes,
		RetryAfterSec: *retryAfter,
		ProgressEvery: every,
		FlightRing:    *flightRing,
		Limits:        limits,
	})
	srv.Start()
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "impacc-serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "impacc-serve: listening on %s\n", ln.Addr())
	if err := (&http.Server{Handler: srv.Handler()}).Serve(ln); err != nil {
		fmt.Fprintf(stderr, "impacc-serve: %v\n", err)
		return 1
	}
	return 0
}
