package device

import (
	"testing"

	"impacc/internal/sim"
)

// spanRec is one span a countingSink received.
type spanRec struct {
	stream     int
	kind, name string
	start, end sim.Time
}

// countingSink is a TraceSink that keeps every span by ID and counts how
// often each ID was recorded.
type countingSink struct {
	next  uint64
	spans map[uint64]spanRec
	count map[uint64]int
}

func (s *countingSink) NewID() uint64 { s.next++; return s.next }

func (s *countingSink) Span(id uint64, stream int, kind, name string, start, end sim.Time, _ int64) {
	s.spans[id] = spanRec{stream, kind, name, start, end}
	s.count[id]++
}

func (s *countingSink) Edge(string, uint64, uint64, sim.Time) {}

// TestResumableOpsRecordOneSpan: a stream operation whose Run parks and
// resumes records exactly one span, when it finishes, covering the whole
// operation: a copy whose legs park and a cross-stream wait that parks span
// from their first Run to their finish, and a kernel that parks behind
// another stream's kernel on the device's compute resource spans its slot
// on that resource.
func TestResumableOpsRecordOneSpan(t *testing.T) {
	eng, _, ctx := psgRig(0)
	sink := &countingSink{spans: map[uint64]spanRec{}, count: map[uint64]int{}}
	ctx.Sink = sink
	host, _ := ctx.Space.AllocHost(1<<22, true)
	dev, _ := ctx.MemAlloc(1 << 22)
	copies, first, second, waits := ctx.NewStream(1), ctx.NewStream(2), ctx.NewStream(3), ctx.NewStream(4)
	kernel := KernelSpec{Name: "k", FLOPs: 1e9, Kind: KindCompute}
	copies.EnqueueCopy(dev, host, 1<<22)
	first.EnqueueKernel(kernel)
	second.EnqueueKernel(kernel)
	waits.EnqueueWaitStream(copies)
	var copyEnd, firstEnd, secondEnd, waitEnd sim.Time
	sync := func(s *Stream, end *sim.Time) {
		eng.Spawn("sync", func(p *sim.Proc) {
			s.Sync(p)
			*end = p.Now()
		})
	}
	sync(copies, &copyEnd)
	sync(first, &firstEnd)
	sync(second, &secondEnd)
	sync(waits, &waitEnd)
	for _, s := range []*Stream{copies, first, second, waits} {
		s.Close()
	}
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	dur := sim.Time(Duration(ctx.Dev.Spec, kernel))
	want := []spanRec{
		{1, "copy", "HtoD", 0, copyEnd},
		{2, "kernel", "k", 0, dur},
		{3, "kernel", "k", dur, 2 * dur},
		{4, "accwait", "qwait", 0, copyEnd},
	}
	if copyEnd <= 0 || firstEnd != dur || secondEnd != 2*dur || waitEnd != copyEnd {
		t.Fatalf("ends: copy %d, kernels %d and %d (kernel %d), wait %d: some operation did not park", copyEnd, firstEnd, secondEnd, dur, waitEnd)
	}
	if len(sink.spans) != len(want) {
		t.Fatalf("%d spans recorded, want %d: %+v", len(sink.spans), len(want), sink.spans)
	}
	for _, w := range want {
		var id uint64
		for i, s := range sink.spans {
			if s.stream == w.stream {
				id = i
			}
		}
		if got := sink.spans[id]; got != w || sink.count[id] != 1 {
			t.Errorf("stream %d: span %+v recorded %d times, want %+v once", w.stream, got, sink.count[id], w)
		}
	}
}
