package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impacc/internal/telemetry"
)

// TestSmokeFig6 drives the full command path through realMain on a fast
// experiment and checks it produces the expected table.
func TestSmokeFig6(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := realMain([]string{"-exp", "fig6", "-quick"}, &out, &errb); rc != 0 {
		t.Fatalf("realMain = %d, stderr:\n%s", rc, errb.String())
	}
	s := out.String()
	if s == "" {
		t.Fatal("no output")
	}
	for _, want := range []string{"==== fig6:", "HtoD", "IMPACC copies"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestMaxVTimeZeroUnlimited: "-max-vtime 0" means unlimited, as the help
// text says, not a duration missing its unit.
func TestMaxVTimeZeroUnlimited(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := realMain([]string{"-exp", "fig6", "-quick", "-max-vtime", "0"}, &out, &errb); rc != 0 {
		t.Fatalf("realMain = %d, stderr:\n%s", rc, errb.String())
	}
}

// TestSmokeList covers the -list path.
func TestSmokeList(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := realMain([]string{"-list"}, &out, &errb); rc != 0 {
		t.Fatalf("realMain = %d", rc)
	}
	if !strings.Contains(out.String(), "fig9") {
		t.Fatalf("-list missing fig9:\n%s", out.String())
	}
}

// TestSmokeUnknownExperiment checks the error path returns a usage code.
func TestSmokeUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := realMain([]string{"-exp", "fig99"}, &out, &errb); rc != 2 {
		t.Fatalf("realMain = %d, want 2", rc)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

// TestMetricsAggregate runs an experiment with -metrics and checks the
// aggregate snapshot holds non-empty series from every run of the sweep.
func TestMetricsAggregate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out, errb bytes.Buffer
	if rc := realMain([]string{"-exp", "fig6", "-quick", "-metrics", path}, &out, &errb); rc != 0 {
		t.Fatalf("realMain = %d, stderr:\n%s", rc, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if len(snap.Families) == 0 {
		t.Fatal("aggregate snapshot has no families")
	}
	found := map[string]bool{}
	for _, f := range snap.Families {
		found[f.Name] = len(f.Series) > 0
	}
	for _, fam := range []string{"msg_intra_msgs_total", "msg_fused_copies_total", "device_copy_bytes"} {
		if !found[fam] {
			t.Errorf("aggregate snapshot missing non-empty family %q", fam)
		}
	}
}

// TestProfDeterministicAcrossJobs runs the same profiled sweep serially and
// with 8 workers; the aggregate profile JSON must be byte-identical.
func TestProfDeterministicAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	run := func(jobs string, path string) []byte {
		var out, errb bytes.Buffer
		args := []string{"-exp", "fig6", "-quick", "-j", jobs, "-prof", path}
		if rc := realMain(args, &out, &errb); rc != 0 {
			t.Fatalf("realMain -j %s = %d, stderr:\n%s", jobs, rc, errb.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	serial := run("1", filepath.Join(dir, "serial.json"))
	parallel := run("8", filepath.Join(dir, "parallel.json"))
	if !bytes.Equal(serial, parallel) {
		t.Errorf("profile JSON differs between -j 1 and -j 8:\n%s\n---\n%s", serial, parallel)
	}
	var ap struct {
		Runs       int              `json:"runs"`
		CritPathNs map[string]int64 `json:"critical_path_ns"`
		MakespanNs int64            `json:"makespan_ns"`
	}
	if err := json.Unmarshal(serial, &ap); err != nil {
		t.Fatalf("profile not JSON: %v", err)
	}
	if ap.Runs == 0 {
		t.Fatal("aggregate profile saw no runs")
	}
	var sum int64
	for _, v := range ap.CritPathNs {
		sum += v
	}
	if sum != ap.MakespanNs {
		t.Errorf("aggregate critical path %d != summed makespan %d", sum, ap.MakespanNs)
	}
}

// TestCSVCountsNoRunTwice: -csv writes the records of the runs that printed
// the tables, so adding it leaves the -metrics and -prof aggregates byte for
// byte as they are without it.
func TestCSVCountsNoRunTwice(t *testing.T) {
	dir := t.TempDir()
	run := func(tag string, extra ...string) (metrics, profile []byte) {
		m := filepath.Join(dir, tag+"-metrics.json")
		p := filepath.Join(dir, tag+"-prof.json")
		args := append([]string{"-exp", "fig7", "-quick", "-metrics", m, "-prof", p}, extra...)
		var out, errb bytes.Buffer
		if rc := realMain(args, &out, &errb); rc != 0 {
			t.Fatalf("realMain %v = %d, stderr:\n%s", args, rc, errb.String())
		}
		var err error
		if metrics, err = os.ReadFile(m); err != nil {
			t.Fatal(err)
		}
		if profile, err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
		return metrics, profile
	}
	plainM, plainP := run("plain")
	csvDir := filepath.Join(dir, "csv")
	csvM, csvP := run("csv", "-csv", csvDir)
	if !bytes.Equal(plainM, csvM) {
		t.Errorf("-csv changed the -metrics aggregate:\n%s\n---\n%s", plainM, csvM)
	}
	if !bytes.Equal(plainP, csvP) {
		t.Errorf("-csv changed the -prof aggregate:\n%s\n---\n%s", plainP, csvP)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig7.csv")); err != nil {
		t.Errorf("-csv wrote no fig7.csv: %v", err)
	}
}
