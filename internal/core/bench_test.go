package core

import "testing"

// BenchmarkUnifiedIsendIrecv measures one round of the unified activity
// queue path between two Titan nodes: device-buffer Isend and Irecv on
// queue 1, Wait, and the queue barrier of ACCWait, on both ranks. allocs/op
// is the round's allocations, as TestMessageAllocBudget holds them.
func BenchmarkUnifiedIsendIrecv(b *testing.B) {
	var ap allocPath
	for _, p := range allocPaths {
		if p.device {
			ap = p
		}
	}
	b.ReportAllocs()
	if _, err := Run(ap.cfg, ap.program(b.N)); err != nil {
		b.Fatal(err)
	}
}
