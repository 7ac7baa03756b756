package cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"impacc/internal/core"
	"impacc/internal/prof"
	"impacc/internal/serve"
	"impacc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/identity.sha256 from this tree's bytes")

// manifestPath holds one "entry/artifact sha256" line per artifact, sorted.
const manifestPath = "testdata/identity.sha256"

// The fault mixes the chaos entries run under.
const (
	// chaosSpec is the four-kind plan of the chaotic jacobi runs.
	chaosSpec = "7:degrade=*:4,rdmaflap=1:2ms:500us,stall=0:0.3:150us,straggle=0:1.5"
	// kindsSpec arms all six fault kinds: jacobi fires five, ep straggle.
	kindsSpec = "7:degrade=*:2,flap=1:130us:20us,rdmaflap=2:90us:30us,stall=0:0.3:10us,straggle=*:1.5,copyfail=*:0.2"
	// sweepChaosSpec is the plan a chaotic impacc-bench sweep runs under.
	sweepChaosSpec = "7:degrade=*:3,stall=0:0.4:150us,straggle=1:1.5,rdmaflap=0:2ms:400us"
)

// artifacts are what one command line wrote, by name: "stdout", "stderr",
// "exit" (the status in decimal) and every file under the entry's
// directory by its slash path there.
type artifacts map[string][]byte

// An entry is one command line of the manifest. It runs in its own temp
// directory, which "$DIR" in args names.
type entry struct {
	name  string
	bench bool // impacc-bench (parallel at -j 8), else impacc-run (-par-sim 8)
	exit  int
	args  string // split on white space
	check func(t *testing.T, a artifacts)
}

func runEntry(name string, exit int, args string, check ...func(*testing.T, artifacts)) entry {
	return entry{name: name, exit: exit, args: args, check: all(check)}
}

func benchEntry(name string, exit int, args string, check ...func(*testing.T, artifacts)) entry {
	return entry{name: name, bench: true, exit: exit, args: args, check: all(check)}
}

func all(checks []func(*testing.T, artifacts)) func(*testing.T, artifacts) {
	return func(t *testing.T, a artifacts) {
		for _, c := range checks {
			c(t, a)
		}
	}
}

const (
	jacobiTitan2 = "-app jacobi -system titan:2 -n 128 -iters 3"
	jacobiTitan4 = "-app jacobi -system titan:4 -n 256 -iters 4"
	copyfailRun  = "-app jacobi -system beacon:2 -mode legacy -backed -n 256 -iters 5 -chaos 7:copyfail=*:0.3 -flight-recorder $DIR/stall.json -style "
	timeoutRun   = "-app jacobi -system titan:8 -n 256 -iters 20 -chaos 7:timeout=500us -report $DIR/report.json -style "
	kindsJacobi  = "-app jacobi -system titan:8 -n 256 -iters 8 -chaos " + kindsSpec + outputs
	outputs      = " -report $DIR/report.json -metrics $DIR/metrics.json"
)

var entries = []entry{
	// Every file surface on one, two and eight nodes.
	runEntry("jacobi-psg", 0, "-app jacobi -system psg -n 256 -iters 3 -trace $DIR/trace.json -prof $DIR/prof.txt"+outputs, reportHoldsMetrics),
	runEntry("jacobi-psg-prom", 0, "-app jacobi -system psg -n 256 -iters 3 -metrics $DIR/metrics.prom -prof $DIR/prof.json"),
	runEntry("jacobi-beacon2", 0, "-app jacobi -system beacon:2 -n 128 -iters 3 -trace $DIR/trace.json -prof $DIR/prof.json"+outputs, profileSmoke, reportHoldsMetrics),
	runEntry("jacobi-beacon2-prom", 0, "-app jacobi -system beacon:2 -n 128 -iters 3 -metrics $DIR/metrics.prom -prof $DIR/prof.txt"),
	runEntry("jacobi-titan8", 0, "-app jacobi -system titan:8 -n 256 -iters 4 -trace $DIR/trace.json -prof $DIR/prof.json"+outputs, profileSmoke),
	runEntry("jacobi-titan8-prom", 0, "-app jacobi -system titan:8 -n 256 -iters 4 -metrics $DIR/metrics.prom -prof $DIR/prof.txt"),
	runEntry("jacobi-titan2", 0, jacobiTitan2+outputs, reportHoldsMetrics),
	runEntry("chaos-titan2", 0, jacobiTitan2+" -chaos "+chaosSpec+outputs, reportHoldsMetrics, faultKinds("degrade")),
	runEntry("jacobi-titan4", 0, jacobiTitan4+outputs, reportHoldsMetrics),
	runEntry("jacobi-titan4-prom", 0, jacobiTitan4+" -metrics $DIR/metrics.prom"),
	runEntry("chaos-titan4", 0, jacobiTitan4+" -chaos "+chaosSpec+outputs, reportHoldsMetrics, faultKinds("degrade")),
	runEntry("chaos-titan4-prom", 0, jacobiTitan4+" -chaos "+chaosSpec+" -metrics $DIR/metrics.prom"),
	runEntry("lulesh-beacon16", 0, "-app lulesh -system beacon:16 -edge 16 -steps 3"+outputs, reportHoldsMetrics),
	runEntry("minicluster", 0, "-app jacobi -system ../../testdata/minicluster.json -n 128 -iters 3"+outputs),

	// Chaos: a receive deadline that outlives its recycled request must
	// not fail a later receive, in every style; every fault kind fires,
	// also in a traced run, whose profile must still telescope.
	runEntry("timeout-sync", 0, timeoutRun+"sync"),
	runEntry("timeout-async", 0, timeoutRun+"async"),
	runEntry("timeout-unified", 0, timeoutRun+"unified"),
	runEntry("kinds-jacobi", 0, kindsJacobi, faultKinds("degrade", "linkdown", "rdmadown", "stall", "copyfail")),
	runEntry("kinds-jacobi-trace", 0, kindsJacobi+" -trace $DIR/trace.json -prof $DIR/prof.json",
		profileSmoke, faultKinds("degrade", "linkdown", "rdmadown", "stall", "copyfail")),
	runEntry("kinds-ep", 0, "-app ep -system titan:8 -class S -chaos "+kindsSpec+outputs, faultKinds("straggle")),

	// A queued copy that runs out of retries fails its owning task with a
	// typed error, as a synchronous copy failure does.
	runEntry("copyfail-async", 1, copyfailRun+"async", taskError),
	runEntry("copyfail-sync", 1, copyfailRun+"sync", taskError),

	// Limits, each with the flight recorder armed.
	runEntry("max-events", 1, "-app jacobi -system beacon:2 -n 128 -iters 3 -max-events 200 -flight-recorder $DIR/stall.json", stall("event-limit")),
	runEntry("max-vtime", 1, "-app jacobi -system beacon:2 -n 128 -iters 100 -max-vtime 200us -flight-recorder $DIR/stall.json", stall("vtime-limit")),
	runEntry("max-alloc", 1, "-app jacobi -system psg -n 256 -iters 3 -max-alloc 1000 -flight-recorder $DIR/stall.json", stderrHas("task heap limit exceeded"), taskError),

	// Live observers.
	runEntry("trace-stream-chaos", 0, jacobiTitan2+" -chaos "+chaosSpec+" -trace-stream $DIR/stream.jsonl", streamHeader),
	runEntry("heartbeats", 0, jacobiTitan2+" -progress-every 20us -progress $DIR/heartbeats.jsonl", nonEmpty("heartbeats.jsonl")),
	runEntry("heartbeats-stderr", 0, "-app jacobi -system beacon:2 -n 128 -iters 3 -progress-every 20us", nonEmpty("stderr")),
	runEntry("lean-gemini", 0, "-app jacobi -system gemini:4,2,2 -lean -n 128 -iters 3 -trace-stream $DIR/stream.jsonl -progress-every 20us -progress $DIR/heartbeats.jsonl",
		streamHeader, nonEmpty("heartbeats.jsonl")),
	runEntry("lean-fattree8", 0, "-app jacobi -system fattree:8 -lean -n 128 -iters 3 -trace-stream $DIR/stream.jsonl", streamHeader),

	// Usage and input errors.
	runEntry("run-help", 0, "-h"),
	runEntry("bad-flag", 2, "-nonsense"),
	runEntry("max-events-negative", 1, "-max-events -1"),
	runEntry("stream-with-trace", 1, "-trace-stream $DIR/stream.jsonl -trace $DIR/trace.json"),

	// Sweeps: every quick experiment's tables, CSV, aggregate metrics and
	// profile; a chaotic sweep; the experiment list and an unknown id.
	benchEntry("quick-all", 0, "-exp all -quick -j 1 -csv $DIR/csv -metrics $DIR/metrics.json -prof $DIR/prof.txt"),
	benchEntry("quick-all-prom", 0, "-exp all -quick -j 1 -metrics $DIR/metrics.prom -prof $DIR/prof.json"),
	benchEntry("fig9-chaos", 0, "-exp fig9 -quick -j 1 -chaos "+sweepChaosSpec+" -metrics $DIR/metrics.json", faultKinds("degrade")),
	benchEntry("bench-list", 0, "-list"),
	benchEntry("unknown-exp", 2, "-exp fig99 -j 1"),
}

// TestIdentityManifest runs every entry in a temp directory and hashes its
// stdout, stderr, exit status and files, after two substitutions: the temp
// directory becomes $DIR, and impacc-bench's "(… wall)" lines are dropped.
// The sorted hashes must equal testdata/identity.sha256 (-update rewrites
// it). Each impacc-run entry also runs at -par-sim 8 and each impacc-bench
// entry at -j 8, and must write the same bytes as the serial run.
func TestIdentityManifest(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{}
	ran := map[string]bool{}
	record := func(name string, a artifacts) {
		mu.Lock()
		defer mu.Unlock()
		ran[name] = true
		for k, b := range a {
			got[name+"/"+k] = fmt.Sprintf("%x", sha256.Sum256(b))
		}
	}
	t.Run("entries", func(t *testing.T) {
		for _, e := range entries {
			t.Run(e.name, func(t *testing.T) {
				t.Parallel()
				serial := e.run(t)
				par := "-par-sim"
				if e.bench {
					par = "-j"
				}
				for _, k := range differing(serial, e.run(t, par, "8")) {
					t.Errorf("%s differs at %s 8", k, par)
				}
				if code := string(serial["exit"]); code != strconv.Itoa(e.exit) {
					t.Errorf("exit %s, want %d; stderr:\n%s", code, e.exit, serial["stderr"])
				}
				for k, b := range serial {
					if bytes.Contains(b, []byte("panicked")) {
						t.Errorf("%s reports a panicked process", k)
					}
				}
				e.check(t, serial)
				record(e.name, serial)
			})
		}
		t.Run("served-jacobi", func(t *testing.T) {
			t.Parallel()
			record("served-jacobi", servedJob(t))
		})
	})
	if t.Failed() {
		return
	}
	if len(ran) != len(entries)+1 {
		t.Logf("ran %d of %d entries; the manifest is compared and rewritten only on a full run", len(ran), len(entries)+1)
		return
	}

	lines := make([]string, 0, len(got))
	for k, sum := range got {
		lines = append(lines, k+" "+sum)
	}
	slices.Sort(lines)
	text := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(manifestPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		k, sum, _ := strings.Cut(line, " ")
		want[k] = sum
	}
	var moved []string
	for k := range got {
		if got[k] != want[k] {
			moved = append(moved, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			moved = append(moved, k)
		}
	}
	slices.Sort(moved)
	for _, k := range moved {
		t.Errorf("moved: %s (manifest %.12s, now %.12s)", k, want[k], got[k])
	}
	if len(moved) > 0 {
		t.Logf("if the change is meant: go test ./internal/cli -run TestIdentityManifest -update, then git diff internal/cli/%s", manifestPath)
	}
}

// run executes the entry with extra flags appended and returns what it
// wrote, after the two substitutions.
func (e entry) run(t *testing.T, extra ...string) artifacts {
	t.Helper()
	dir := t.TempDir()
	args := append(strings.Fields(strings.ReplaceAll(e.args, "$DIR", dir)), extra...)
	cmd := Run
	if e.bench {
		cmd = Bench
	}
	var stdout, stderr bytes.Buffer
	code := cmd(args, &stdout, &stderr)
	a := artifacts{"stdout": stdout.Bytes(), "stderr": stderr.Bytes(), "exit": []byte(strconv.Itoa(code))}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		a[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range a {
		a[k] = bytes.ReplaceAll(b, []byte(dir), []byte("$DIR"))
	}
	if e.bench {
		a["stdout"] = dropWallLines(a["stdout"])
	}
	return a
}

// dropWallLines removes impacc-bench's "(… wall)" lines, the one real-time
// reading in its output.
func dropWallLines(b []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if !(bytes.HasPrefix(line, []byte("(")) && bytes.HasSuffix(line, []byte(" wall)\n"))) {
			out = append(out, line...)
		}
	}
	return out
}

// differing names the artifacts that a and b do not hold with equal bytes.
func differing(a, b artifacts) []string {
	var keys []string
	for k := range a {
		if !bytes.Equal(a[k], b[k]) {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// servedJob submits one job twice to an in-process job server that has
// impacc-serve's default limits (a report records its limits); the first
// answer must come from a run and the second from the cache. Its artifacts
// are both status replies and the report in both encodings.
func servedJob(t *testing.T) artifacts {
	srv := serve.New(serve.Config{Workers: 1, Limits: core.Limits{
		MaxVirtualTime: 10 * sim.Second, MaxEvents: 50_000_000, MaxAllocBytes: 1 << 31,
	}})
	srv.Start()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d: %s", resp.Request.URL, resp.StatusCode, body)
		}
		return body
	}
	const spec = `{"system":"beacon:2","app":"jacobi","n":128,"iters":3}`
	submit := func() []byte {
		return get(http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec)))
	}
	a := artifacts{"first.json": submit(), "second.json": submit()}
	var first, second serve.Status
	decode(t, a, "first.json", &first)
	decode(t, a, "second.json", &second)
	if first.State != "done" || first.Cached || second.State != "done" || !second.Cached {
		t.Fatalf("first %s cached=%v, second %s cached=%v; want done from a run, then done from the cache",
			first.State, first.Cached, second.State, second.Cached)
	}
	counters := get(http.Get(ts.URL + "/metrics"))
	for _, want := range []string{"serve_runs_total 1\n", "serve_cache_hits_total 1\n"} {
		if !bytes.Contains(counters, []byte("\n"+want)) {
			t.Errorf("server metrics lack %q", want)
		}
	}
	a["report"] = get(http.Get(ts.URL + "/v1/jobs/" + first.Key + "/report"))
	a["report.txt"] = get(http.Get(ts.URL + "/v1/jobs/" + first.Key + "/report.txt"))
	return a
}

func decode(t *testing.T, a artifacts, name string, v any) {
	t.Helper()
	if err := json.Unmarshal(a[name], v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// reportHoldsMetrics: the report embeds the same metrics document as the
// -metrics file.
func reportHoldsMetrics(t *testing.T, a artifacts) {
	var report struct{ Metrics any }
	var metrics any
	decode(t, a, "report.json", &report)
	decode(t, a, "metrics.json", &metrics)
	if !reflect.DeepEqual(report.Metrics, metrics) {
		t.Error("report Metrics differs from the -metrics file")
	}
}

// profileSmoke: the critical path covers the makespan exactly, and the
// Chrome trace pairs every flow start with a finish and names its lanes.
func profileSmoke(t *testing.T, a artifacts) {
	var p prof.Profile
	decode(t, a, "prof.json", &p)
	var crit int64
	for _, ns := range p.CritPath.ByKindNs {
		crit += ns
	}
	if crit != p.MakespanNs {
		t.Errorf("critical path %d ns, makespan %d ns", crit, p.MakespanNs)
	}
	var trace struct{ TraceEvents []struct{ Ph string } }
	decode(t, a, "trace.json", &trace)
	phases := map[string]int{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["s"] == 0 || phases["s"] != phases["f"] || phases["M"] == 0 {
		t.Errorf("trace phases %v: want paired flows (s = f > 0) and metadata (M)", phases)
	}
}

// faultKinds: the metrics count injected faults of at least these kinds.
func faultKinds(kinds ...string) func(*testing.T, artifacts) {
	return func(t *testing.T, a artifacts) {
		var m struct {
			Families []struct {
				Name   string
				Series []struct{ Labels []struct{ Key, Value string } }
			}
		}
		decode(t, a, "metrics.json", &m)
		seen := map[string]bool{}
		for _, f := range m.Families {
			if f.Name != "fault_injected_total" {
				continue
			}
			for _, s := range f.Series {
				for _, l := range s.Labels {
					seen[l.Value] = seen[l.Value] || l.Key == "kind"
				}
			}
		}
		for _, k := range kinds {
			if !seen[k] {
				t.Errorf("fault kind %s never counted in fault_injected_total", k)
			}
		}
	}
}

// taskError: a failed task (a queued copy out of retries, the heap cap)
// ends the run with its typed error, and the flight dump names the same
// error.
func taskError(t *testing.T, a artifacts) {
	var st sim.StallReport
	decode(t, a, "stall.json", &st)
	errLines := regexp.MustCompile(`(?m)^impacc-run: task [0-9]+: .*$`).FindAll(a["stderr"], -1)
	if st.Reason != "task-error" || len(errLines) == 0 || string(errLines[len(errLines)-1]) != "impacc-run: "+st.Error {
		t.Errorf("stall reason %q error %q; stderr task errors %q", st.Reason, st.Error, errLines)
	}
}

// stall: the flight dump gives the reason, a parked task and recent
// events, and stderr points to it.
func stall(reason string) func(*testing.T, artifacts) {
	return func(t *testing.T, a artifacts) {
		var st sim.StallReport
		decode(t, a, "stall.json", &st)
		var parkedTask, recent bool
		for _, s := range st.Shards {
			recent = recent || len(s.Recent) > 0
			for _, p := range s.Parked {
				parkedTask = parkedTask || strings.HasPrefix(p.Name, "task")
			}
		}
		if st.Reason != reason || !parkedTask || !recent {
			t.Errorf("stall reason %q, parked task %v, recent events %v; want %q, true, true", st.Reason, parkedTask, recent, reason)
		}
		if !bytes.Contains(a["stderr"], []byte("impacc-run: flight recorder (")) {
			t.Errorf("stderr does not point to the flight dump:\n%s", a["stderr"])
		}
	}
}

func stderrHas(text string) func(*testing.T, artifacts) {
	return func(t *testing.T, a artifacts) {
		if !bytes.Contains(a["stderr"], []byte(text)) {
			t.Errorf("stderr lacks %q:\n%s", text, a["stderr"])
		}
	}
}

func streamHeader(t *testing.T, a artifacts) {
	if first, _, _ := bytes.Cut(a["stream.jsonl"], []byte("\n")); !bytes.Contains(first, []byte("impacc-trace-stream-v1")) {
		t.Errorf("stream header %q", first)
	}
}

func nonEmpty(name string) func(*testing.T, artifacts) {
	return func(t *testing.T, a artifacts) {
		if len(a[name]) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}
