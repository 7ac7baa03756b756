package serve

import "testing"

// TestJobKeyTable pins the content address of one spec per application and
// of one variant per simulation-relevant field. A key is a cache address
// that outlives the process, so any change to these digests silently
// orphans every cached result: the table must only change together with a
// deliberate change to the simulated bytes.
func TestJobKeyTable(t *testing.T) {
	for _, c := range []struct {
		spec JobSpec
		key  string
	}{
		{JobSpec{System: "psg", App: "dgemm"},
			"8906b0c56f88ff522c86503263a13821f5a6c037834fe84c412ed7233422e6da"},
		{JobSpec{System: "psg", App: "ep"},
			"e40f2d76d88c11ba55dafaa4a53486170241b69db24ec3d77483eb491d4cc218"},
		{JobSpec{System: "psg", App: "jacobi"},
			"b335753fcda2466dcf0e98cf9ced2e12243053d943e98e478874cb65c79d8859"},
		{JobSpec{System: "titan:8", App: "lulesh"},
			"40fa3467a3b39566d32a233c91eb9bdc7e9d7812d71efaf21577511f9b6d1ad8"},
		{JobSpec{System: "beacon:2", App: "ep", Class: "W", Backed: true},
			"461f997f2b0ae51c71872b245cb25b80992077088abb89b1663627897e02c3ef"},
		{JobSpec{System: "beacon:2", App: "jacobi", N: 256, Iters: 3, Mode: "legacy"},
			"97107ed2524674946f3067b6f8915619a5d65b11e974a21138a4e7431b954a5f"},
		{JobSpec{System: "beacon:2", App: "jacobi", N: 256, Iters: 3, Style: "sync"},
			"727ef4a0ad5e8137528cb3ece4c7cee02edd0eb515454985efede536d2e7bae0"},
		{JobSpec{System: "titan:4", App: "jacobi", Chaos: "7:degrade=*:4,rdmaflap=1:2ms:500us"},
			"aaabdabc82d455efabc6a4b7da7239c04b102e0e5e51f1c1b26a80be1059be0c"},
		{JobSpec{System: "hetero", App: "jacobi", Devices: "nvidia"},
			"3562623444034bdc830e7e1b24d7c782d23f7ce17efc64345abd958a947e039d"},
		{JobSpec{System: "hetero", App: "dgemm", Tasks: 2, Verify: true},
			"6acfb7e44020745cae50a30c15e00c9f363e9557dacdf9325a944b3b3fd4224f"},
		{JobSpec{System: "psg", App: "jacobi", Seed: 9},
			"0828d049dc19e9fcdc71ab3f9f3c9f7f752191996dfd04d9908789e7bcb3c891"},
		{JobSpec{System: "titan:8", App: "lulesh", Edge: 8, Steps: 2, Lean: true},
			"a746423e34e418daeca4b07dd76c95b878872993860a86a2920ee6f89c420231"},
	} {
		if got := mustKey(t, c.spec); got != c.key {
			t.Errorf("key(%+v) = %s, want %s", c.spec, got, c.key)
		}
	}
}
