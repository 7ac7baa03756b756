package impacc_test

import (
	"strings"
	"testing"

	"impacc"
)

// TestQuickstartAPI exercises the public facade end to end: the example
// from the package documentation, plus the IMPACC extension options.
func TestQuickstartAPI(t *testing.T) {
	cfg := impacc.Config{System: impacc.PSG(), Mode: impacc.IMPACC, Backed: true}
	rep, err := impacc.Run(cfg, func(tk *impacc.Task) {
		buf := tk.Malloc(8 * 1024)
		if tk.Rank() == 0 {
			v := tk.Floats(buf, 1024)
			for i := range v {
				v[i] = float64(i)
			}
			tk.Send(buf, 1024, impacc.Float64, 1, 0, impacc.ReadOnly())
		} else if tk.Rank() == 1 {
			tk.Recv(buf, 1024, impacc.Float64, 0, 0, impacc.ReadOnly())
			// Views must be taken *after* an aliasing receive: node heap
			// aliasing replaces the buffer's storage (paper §3.8,
			// requirement 4 — no pre-existing pointers into the region).
			v := tk.Floats(buf, 1024)
			if v[1023] != 1023 {
				t.Error("payload lost")
			}
		}
		tk.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NTasks != 8 {
		t.Fatalf("tasks = %d, want one per PSG GPU", rep.NTasks)
	}
	if rep.TotalHub().Aliases != 1 {
		t.Fatalf("aliases = %d, want 1", rep.TotalHub().Aliases)
	}
}

func TestPublicMappingAndSystems(t *testing.T) {
	if got := len(impacc.BuildMapping(impacc.HeteroDemo(), impacc.MaskOf(impacc.NVIDIAGPU), 0)); got != 3 {
		t.Fatalf("nvidia mapping = %d", got)
	}
	if len(impacc.Titan(4).Nodes) != 4 || len(impacc.Beacon(2).Nodes) != 2 {
		t.Fatal("system constructors wrong")
	}
	f := impacc.DefaultFeatures(impacc.IMPACC)
	if !f.UnifiedQueue || !f.Aliasing {
		t.Fatal("IMPACC defaults missing features")
	}
	if impacc.DefaultFeatures(impacc.Legacy) != (impacc.Features{}) {
		t.Fatal("legacy defaults must disable every IMPACC technique")
	}
}

func TestPublicACCAndKernels(t *testing.T) {
	cfg := impacc.Config{System: impacc.PSG(), Mode: impacc.IMPACC, Backed: true, MaxTasks: 1}
	_, err := impacc.Run(cfg, func(tk *impacc.Task) {
		buf := tk.Malloc(4096)
		tk.DataEnter(buf, 4096, impacc.Copyin)
		tk.Kernels(impacc.KernelSpec{Name: "k", FLOPs: 1e8, Kind: impacc.KindCompute}, 1)
		tk.ACCWait(1)
		tk.DataExit(buf, impacc.Copyout)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCoverage(t *testing.T) {
	if _, err := impacc.ParseClassMask("nvidia"); err != nil {
		t.Fatal(err)
	}
	sys, err := impacc.LoadSystem(strings.NewReader(`{
	  "name": "t", "threadMultiple": true,
	  "nodes": [{"name": "n", "sockets": [{"name": "c", "cores": 4, "gflopsDP": 100}],
	    "hostMemGBs": 8, "nic": {"name": "e", "link": {"latency": 1000, "gbs": 1}},
	    "devices": [{"class": "cpu", "name": "c0", "gflopsDP": 100, "gemmEff": 0.8,
	      "memBWGBs": 20, "stencilEff": 0.5, "kernelLaunch": 1000}]}]
	}`))
	if err != nil || sys.Name != "t" {
		t.Fatalf("LoadSystem: %v", err)
	}
	tr := impacc.NewTracer()
	cfg := impacc.Config{System: sys, Mode: impacc.IMPACC, Backed: true, Trace: tr}
	_, err = impacc.Run(cfg, func(tk *impacc.Task) {
		buf := tk.Malloc(64)
		tk.DataEnter(buf, 64, impacc.Copyin)
		tk.Kernels(impacc.KernelSpec{FLOPs: 1e6, Kind: impacc.KindCompute}, -1)
		tk.DataExit(buf, impacc.Copyout)
		// IMPACC directive options on an integrated device.
		tk.Isend(buf, 1, impacc.Float64, 0, 0, impacc.OnDevice(), impacc.Async(1))
		tk.Irecv(buf, 1, impacc.Float64, 0, 0, impacc.OnDevice(), impacc.Async(1))
		tk.ACCWait(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer collected nothing")
	}
}
