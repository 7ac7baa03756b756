package msg

import (
	"testing"
	"testing/quick"
)

func TestFIFOEmptyPop(t *testing.T) {
	var q fifo[int]
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty returned ok")
	}
	if q.len() != 0 {
		t.Fatalf("empty queue len = %d", q.len())
	}
}

func TestFIFOSingleThreadOrder(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 100; i++ {
		q.push(i)
	}
	if q.len() != 100 {
		t.Fatalf("len = %d, want 100", q.len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be drained")
	}
}

func TestFIFOInterleavedPushPop(t *testing.T) {
	var q fifo[string]
	q.push("a")
	q.push("b")
	if v, _ := q.pop(); v != "a" {
		t.Fatal("order wrong")
	}
	q.push("c")
	if v, _ := q.pop(); v != "b" {
		t.Fatal("order wrong")
	}
	if v, _ := q.pop(); v != "c" {
		t.Fatal("order wrong")
	}
	if q.len() != 0 {
		t.Fatalf("len after drain = %d", q.len())
	}
}

// TestFIFOMatchesSliceModelProperty: any push/pop sequence on the hub FIFO
// matches a slice model, element for element, including the length the
// queue-peak gauges read and the empty pop at the end.
func TestFIFOMatchesSliceModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q fifo[uint8]
		var model []uint8
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				v, ok := q.pop()
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			} else {
				q.push(op)
				model = append(model, op)
			}
			if q.len() != len(model) {
				return false
			}
		}
		for _, want := range model {
			v, ok := q.pop()
			if !ok || v != want {
				return false
			}
		}
		_, ok := q.pop()
		return !ok && q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
