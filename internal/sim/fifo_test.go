package sim

import (
	"testing"
	"testing/quick"
)

func TestFIFOEmptyPop(t *testing.T) {
	var q FIFO[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty returned ok")
	}
	if q.Len() != 0 {
		t.Fatalf("empty queue len = %d", q.Len())
	}
}

func TestFIFOSingleThreadOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be drained")
	}
}

func TestFIFOInterleavedPushPop(t *testing.T) {
	var q FIFO[string]
	q.Push("a")
	q.Push("b")
	if v, _ := q.Pop(); v != "a" {
		t.Fatal("order wrong")
	}
	q.Push("c")
	if v, _ := q.Pop(); v != "b" {
		t.Fatal("order wrong")
	}
	if v, _ := q.Pop(); v != "c" {
		t.Fatal("order wrong")
	}
	if q.Len() != 0 {
		t.Fatalf("len after drain = %d", q.Len())
	}
}

// TestFIFOMatchesSliceModelProperty: any push/pop sequence on a FIFO
// matches a slice model, element for element, including the length the
// queue-peak gauges read and the empty pop at the end.
func TestFIFOMatchesSliceModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q FIFO[uint8]
		var model []uint8
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				v, ok := q.Pop()
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			} else {
				q.Push(op)
				model = append(model, op)
			}
			if q.Len() != len(model) {
				return false
			}
		}
		for _, want := range model {
			v, ok := q.Pop()
			if !ok || v != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOLongBacklog drains a 10k-item backlog through FIFO, Cond and
// Semaphore, checking that every pop keeps arrival order.
func TestFIFOLongBacklog(t *testing.T) {
	const n = 10000
	var q FIFO[int]
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop #%d = %v, %v", i, v, ok)
		}
	}
	// Refill a half-drained queue so push slides the live tail.
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n/2; i++ {
		q.Pop()
	}
	for i := n; i < n+n/2; i++ {
		q.Push(i)
	}
	for i := n / 2; i < n+n/2; i++ {
		if v, _ := q.Pop(); v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}

	e := NewEngine()
	c := e.NewCond("c")
	s := e.NewSemaphore(0, "s")
	var condOrder, semOrder []int
	for i := 0; i < n; i++ {
		e.Spawn("c", func(p *Proc) {
			c.Wait(p)
			condOrder = append(condOrder, i)
		})
		e.Spawn("s", func(p *Proc) {
			s.Acquire(p)
			semOrder = append(semOrder, i)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Microsecond)
		for c.WakeOne() {
		}
		for i := 0; i < n; i++ {
			s.Release()
		}
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if condOrder[i] != i || semOrder[i] != i {
			t.Fatalf("wake #%d: cond %d, semaphore %d", i, condOrder[i], semOrder[i])
		}
	}
	if c.waiters.Len() != 0 || s.avail != 0 || q.Len() != 0 {
		t.Fatalf("left over: %d waiting, %d permits, %d items", c.waiters.Len(), s.avail, q.Len())
	}
}
