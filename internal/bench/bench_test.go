package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impacc/internal/apps"
)

var quick = Options{Quick: true}

func TestRegistryAndSmoke(t *testing.T) {
	// Every experiment must be registered, findable, and runnable in
	// quick mode producing non-empty output.
	ids := []string{"table1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "ablation", "ext-2d"}
	if len(All) != len(ids) {
		t.Fatalf("registry has %d experiments, want %d", len(All), len(ids))
	}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var sb strings.Builder
		if _, err := e.Run(&sb, quick); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestFig2Shapes(t *testing.T) {
	res := Fig2()
	wants := []int{11, 3, 6, 2, 5}
	for i, r := range res {
		if len(r.Tasks) != wants[i] {
			t.Errorf("mask %v: %d tasks, want %d", r.Mask, len(r.Tasks), wants[i])
		}
	}
}

func TestFig5SyncSlowerThanUnified(t *testing.T) {
	res, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	var sync, async, unified Fig5Result
	for _, r := range res {
		switch r.Style {
		case apps.StyleSync:
			sync = r
		case apps.StyleAsync:
			async = r
		default:
			unified = r
		}
	}
	// Figure 5: the unified queue frees the host thread almost instantly,
	// while sync/async keep it captive for the whole pipeline.
	if unified.IssueSpan*4 > sync.IssueSpan {
		t.Fatalf("unified host-captive span %v not far below sync %v",
			unified.IssueSpan, sync.IssueSpan)
	}
	if unified.IssueSpan*4 > async.IssueSpan {
		t.Fatalf("unified host-captive span %v not far below async %v",
			unified.IssueSpan, async.IssueSpan)
	}
	if unified.Elapsed >= sync.Elapsed {
		t.Fatalf("unified elapsed %v not below sync %v", unified.Elapsed, sync.Elapsed)
	}
	if async.Elapsed > sync.Elapsed {
		t.Fatalf("async elapsed %v exceeds sync %v", async.Elapsed, sync.Elapsed)
	}
}

func TestFig6FusionEliminatesCopies(t *testing.T) {
	res, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"HtoH": 2, "HtoD": 3, "DtoH": 3, "DtoD": 4}
	for _, r := range res {
		if r.IMPACCCopies != 1 {
			t.Errorf("%s: IMPACC copies = %d, want 1 (message fusion)", r.Pair, r.IMPACCCopies)
		}
		if r.LegacyCopies != want[r.Pair] {
			t.Errorf("%s: legacy copies = %d, want %d", r.Pair, r.LegacyCopies, want[r.Pair])
		}
		if r.IMPACCTime >= r.LegacyTime {
			t.Errorf("%s: IMPACC %v not faster than legacy %v", r.Pair, r.IMPACCTime, r.LegacyTime)
		}
	}
}

func TestFig7AliasingZeroCopy(t *testing.T) {
	res, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	plain, ro := res[0], res[1]
	if plain.Aliases != 0 || plain.Copies != 1 {
		t.Fatalf("plain pair: aliases=%d copies=%d", plain.Aliases, plain.Copies)
	}
	if ro.Aliases != 1 || ro.Copies != 0 {
		t.Fatalf("readonly pair: aliases=%d copies=%d, want 1/0", ro.Aliases, ro.Copies)
	}
}

func TestFig8NUMARatios(t *testing.T) {
	rows, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	var maxPSG, maxBeacon float64
	for _, r := range rows {
		if r.FarGBs > r.NearGBs {
			t.Errorf("%s %s %s: far faster than near", r.System, r.Dir, sizeLabel(r.Bytes))
		}
		ratio := r.NearGBs / r.FarGBs
		if r.System == "PSG" && ratio > maxPSG {
			maxPSG = ratio
		}
		if r.System == "Beacon" && ratio > maxBeacon {
			maxBeacon = ratio
		}
	}
	// Paper: "up to 3.5 times" on the large-transfer end.
	if maxPSG < 3.0 || maxPSG > 3.7 {
		t.Fatalf("PSG max near/far ratio = %.2f, want ~3.5", maxPSG)
	}
	if maxBeacon < 2.0 || maxBeacon > 3.0 {
		t.Fatalf("Beacon max near/far ratio = %.2f, want ~2.6", maxBeacon)
	}
}

func TestFig9IMPACCWins(t *testing.T) {
	rows, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	var maxDtoD float64
	for _, r := range rows {
		if r.Bytes < 1<<20 {
			continue // latency-dominated region is noisy in the paper too
		}
		strict := strings.Contains(r.Panel, "DtoD") || strings.Contains(r.Panel, "HtoD")
		if strict && r.IMPACCGBs <= r.MPIXGBs {
			t.Errorf("%s %s: IMPACC %.2f <= MPI+X %.2f GB/s",
				r.Panel, sizeLabel(r.Bytes), r.IMPACCGBs, r.MPIXGBs)
		}
		if !strict && r.IMPACCGBs < r.MPIXGBs*0.99 {
			t.Errorf("%s %s: IMPACC %.2f below MPI+X %.2f GB/s",
				r.Panel, sizeLabel(r.Bytes), r.IMPACCGBs, r.MPIXGBs)
		}
		if strings.HasPrefix(r.Panel, "PSG") && strings.HasSuffix(r.Panel, "DtoD") {
			if ratio := r.IMPACCGBs / r.MPIXGBs; ratio > maxDtoD {
				maxDtoD = ratio
			}
		}
	}
	// Paper: "almost eight times higher bandwidth ... in device-to-device
	// intra-node communication in PSG (Figure 9 (c))".
	if maxDtoD < 4 || maxDtoD > 12 {
		t.Fatalf("PSG DtoD IMPACC/MPI+X ratio = %.2f, want ~8", maxDtoD)
	}
}

func TestFig10Shapes(t *testing.T) {
	rows, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	// IMPACC must never lose to the baseline, and both must show speedup
	// with more tasks on the compute-heavy sizes.
	for _, r := range rows {
		if r.IMPACC < r.MPIX*0.95 {
			t.Errorf("%s %s x%d: IMPACC %.2f below MPI+X %.2f",
				r.Panel, r.Param, r.Tasks, r.IMPACC, r.MPIX)
		}
	}
}

func TestFig11BreakdownSane(t *testing.T) {
	rows, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Kernel <= 0 {
			t.Errorf("N=%d tasks=%d %v: zero kernel fraction", r.N, r.Tasks, r.Mode)
		}
		if r.Kernel+r.Comm+r.Other <= 0 {
			t.Errorf("N=%d tasks=%d %v: empty breakdown", r.N, r.Tasks, r.Mode)
		}
	}
	// 1-task legacy run must have total ~1.0 by construction.
	for _, r := range rows {
		if r.Tasks == 1 && r.Mode.String() == "MPI+OpenACC" {
			total := r.Kernel + r.Comm + r.Other
			if total < 0.97 || total > 1.03 {
				t.Fatalf("baseline breakdown total = %.3f, want ~1", total)
			}
		}
	}
}

func TestFig12EPTies(t *testing.T) {
	rows, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]SpeedupRow{}
	last := map[string]SpeedupRow{}
	for _, r := range rows {
		// Paper: "EP shows almost same performances in IMPACC and
		// MPI+OpenACC for all experiments."
		ratio := r.IMPACC / r.MPIX
		if ratio < 0.9 || ratio > 1.15 {
			t.Errorf("%s %s x%d: IMPACC/MPI+X = %.2f, want ~1", r.Panel, r.Param, r.Tasks, ratio)
		}
		key := r.Panel + r.Param
		if _, ok := first[key]; !ok {
			first[key] = r
		}
		last[key] = r
	}
	// Strong scaling within each panel: more tasks, more speedup.
	for key := range first {
		if last[key].IMPACC <= first[key].IMPACC {
			t.Errorf("%s: speedup did not grow (%.2f -> %.2f)",
				key, first[key].IMPACC, last[key].IMPACC)
		}
	}
}

func TestFig13JacobiIMPACCWins(t *testing.T) {
	rows, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Tasks == 1 {
			continue
		}
		if r.IMPACC <= r.MPIX {
			t.Errorf("%s %s x%d: IMPACC %.2f <= MPI+X %.2f (optimized DtoD should win)",
				r.Panel, r.Param, r.Tasks, r.IMPACC, r.MPIX)
		}
	}
}

func TestFig14DtoDBreakdown(t *testing.T) {
	rows, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		legacyTotal := r.MPIXDtoH + r.MPIXHtoH + r.MPIXHtoD
		if r.IMPACCDtoD <= 0 {
			t.Errorf("N=%d x%d: no IMPACC DtoD time", r.N, r.Tasks)
		}
		if r.IMPACCDtoD >= legacyTotal {
			t.Errorf("N=%d x%d: IMPACC DtoD %v not below staged total %v",
				r.N, r.Tasks, r.IMPACCDtoD, legacyTotal)
		}
		if r.MPIXDtoH == 0 || r.MPIXHtoD == 0 || r.MPIXHtoH == 0 {
			t.Errorf("N=%d x%d: missing staged component (%v/%v/%v)",
				r.N, r.Tasks, r.MPIXDtoH, r.MPIXHtoH, r.MPIXHtoD)
		}
	}
}

func TestFig15LULESHShapes(t *testing.T) {
	rows, err := Fig15(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Panel == "PSG" && r.IMPACC < r.MPIX {
			// Paper: IMPACC wins on PSG (pinning + fusion).
			t.Errorf("PSG x%d: IMPACC %.2f < MPI+X %.2f", r.Tasks, r.IMPACC, r.MPIX)
		}
		if r.IMPACC <= 0 || r.MPIX <= 0 {
			t.Errorf("%s x%d: empty result", r.Panel, r.Tasks)
		}
		// Weak scaling: normalized performance must not collapse.
		if r.IMPACC < 0.3 {
			t.Errorf("%s x%d: efficiency collapsed (%.2f)", r.Panel, r.Tasks, r.IMPACC)
		}
	}
}

func TestAblationsAllCost(t *testing.T) {
	rows, err := Ablations(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("ablations = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Gain() < 1.0 {
			t.Errorf("%s: disabling it *helped* (%.2fx)", r.Technique, r.Gain())
		}
	}
}

func TestExperimentOutputGolden(t *testing.T) {
	// The table printers must include header labels.
	checks := map[string]string{
		"table1": "THREAD_MULTIPLE",
		"fig8":   "near GB/s",
		"fig9":   "IMPACC GB/s",
		"fig14":  "MPI+X total",
	}
	for id, want := range checks {
		e, _ := ByID(id)
		var sb strings.Builder
		if _, err := e.Run(&sb, quick); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), want) {
			t.Errorf("%s output missing %q", id, want)
		}
	}
	_ = io.Discard
}

func TestExt2DHaloReduction(t *testing.T) {
	rows, err := Ext2D(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Halo2D >= r.Halo1D {
			t.Errorf("N=%d x%d: 2-D halo bytes (%d) not below 1-D (%d)",
				r.N, r.Tasks, r.Halo2D, r.Halo1D)
		}
	}
}

// TestWriteCSVAllTabular: every experiment but table1 and fig2 returns CSV
// records with a header, at least one data row, and no ragged rows.
func TestWriteCSVAllTabular(t *testing.T) {
	for _, r := range RunMany(All, quick) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Exp.ID, r.Err)
		}
		if r.Exp.ID == "table1" || r.Exp.ID == "fig2" {
			if r.CSV != nil {
				t.Errorf("%s returned CSV records; it has no tabular form", r.Exp.ID)
			}
			continue
		}
		if len(r.CSV) < 2 {
			t.Fatalf("%s: CSV has no data rows", r.Exp.ID)
		}
		for i, rec := range r.CSV {
			if len(rec) != len(r.CSV[0]) {
				t.Fatalf("%s record %d: ragged CSV: %q", r.Exp.ID, i, rec)
			}
		}
	}
}

// TestQuickGoldens pins every experiment's -quick output to the bytes in
// testdata/quick/<id>.txt: impacc-bench's stdout without its real-time
// "(… wall)" line. After a deliberate model change, regenerate them from the
// repository root with
//
//	for id in $(go run ./cmd/impacc-bench -list | cut -d' ' -f1); do
//		go run ./cmd/impacc-bench -exp $id -quick | grep -v 'wall)$' >internal/bench/testdata/quick/$id.txt
//	done
func TestQuickGoldens(t *testing.T) {
	for _, r := range RunMany(All, quick.WithJobs(2)) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Exp.ID, r.Err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "quick", r.Exp.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("==== %s: %s ====\n%s\n", r.Exp.ID, r.Exp.Title, r.Output); got != string(want) {
			t.Errorf("%s -quick output drifted from its golden:\n%s\nwant:\n%s", r.Exp.ID, got, want)
		}
	}
}

// TestQuickCSVGoldens pins every tabular experiment's -quick CSV records,
// as impacc-bench -csv writes them, to the bytes in testdata/quick/<id>.csv.
// After a deliberate model change, regenerate them from the repository root
// with
//
//	go run ./cmd/impacc-bench -exp all -quick -csv internal/bench/testdata/quick >/dev/null
func TestQuickCSVGoldens(t *testing.T) {
	for _, r := range RunMany(All, quick.WithJobs(2)) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Exp.ID, r.Err)
		}
		if r.CSV == nil {
			continue
		}
		var got strings.Builder
		if err := csv.NewWriter(&got).WriteAll(r.CSV); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "quick", r.Exp.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s -quick CSV drifted from its golden:\n%s\nwant:\n%s", r.Exp.ID, got.String(), want)
		}
	}
}
