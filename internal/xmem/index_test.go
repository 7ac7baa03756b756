package xmem

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexEmpty(t *testing.T) {
	var x Index[int]
	if x.Len() != 0 {
		t.Fatal("zero index is not empty")
	}
	if _, ok := x.Get(0); ok {
		t.Fatal("Get on empty index returned ok")
	}
	if _, ok := x.Floor(^Addr(0)); ok {
		t.Fatal("Floor on empty index returned ok")
	}
	if _, ok := x.Ceil(0); ok {
		t.Fatal("Ceil on empty index returned ok")
	}
	if x.Delete(0) || x.Len() != 0 {
		t.Fatal("Delete on empty index changed it")
	}
}

func TestIndexPutGetDelete(t *testing.T) {
	var x Index[int]
	for i := 0; i < 100; i++ {
		x.Put(Addr(i*7%100), i)
	}
	if x.Len() != 100 {
		t.Fatalf("len = %d, want 100", x.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := x.Get(Addr(i * 7 % 100))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i*7%100, v, ok)
		}
	}
	// Overwrite.
	x.Put(5, 999)
	if v, _ := x.Get(5); v != 999 {
		t.Fatal("Put did not overwrite")
	}
	if x.Len() != 100 {
		t.Fatal("overwrite changed size")
	}
	for i := 0; i < 100; i += 2 {
		if !x.Delete(Addr(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if x.Delete(0) {
		t.Fatal("second Delete(0) = true")
	}
	if x.Len() != 50 || !slices.IsSorted(x.keys) {
		t.Fatalf("len after deletes = %d, sorted = %v; want 50, true", x.Len(), slices.IsSorted(x.keys))
	}
	for i := 0; i < 100; i++ {
		if _, ok := x.Get(Addr(i)); ok != (i%2 == 1) {
			t.Fatalf("Get(%d) ok = %v after deleting even keys", i, ok)
		}
	}
}

func TestIndexFloorCeil(t *testing.T) {
	var x Index[Addr]
	for _, k := range []Addr{10, 20, 30, 40} {
		x.Put(k, k)
	}
	cases := []struct {
		q       Addr
		floor   Addr
		floorOK bool
		ceil    Addr
		ceilOK  bool
	}{
		{5, 0, false, 10, true},
		{10, 10, true, 10, true},
		{15, 10, true, 20, true},
		{40, 40, true, 40, true},
		{45, 40, true, 0, false},
	}
	for _, c := range cases {
		k, ok := x.Floor(c.q)
		if ok != c.floorOK || (ok && k != c.floor) {
			t.Errorf("Floor(%d) = %d,%v want %d,%v", c.q, k, ok, c.floor, c.floorOK)
		}
		k, ok = x.Ceil(c.q)
		if ok != c.ceilOK || (ok && k != c.ceil) {
			t.Errorf("Ceil(%d) = %d,%v want %d,%v", c.q, k, ok, c.ceil, c.ceilOK)
		}
	}
}

// Property: Index behaves exactly like a map plus a sorted key list under
// random interleavings of put (including overwrites) and delete (including
// deletes of absent keys); Floor and Ceil agree with binary search over the
// sorted keys of the model, at every key, its neighbours and both ends of
// the address range.
func TestIndexMatchesMapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var x Index[int]
		ref := map[Addr]int{}
		for i, op := range ops {
			// Keys come from a small space so overwrites and deletes of
			// absent keys are common.
			k := Addr(op%32) << 6
			if op >= 192 {
				_, had := ref[k]
				delete(ref, k)
				if x.Delete(k) != had {
					return false
				}
			} else {
				x.Put(k, i)
				ref[k] = i
			}
			if x.Len() != len(ref) || !slices.IsSorted(x.keys) {
				return false
			}
		}
		keys := make([]Addr, 0, len(ref))
		for k, v := range ref {
			if got, ok := x.Get(k); !ok || got != v {
				return false
			}
			keys = append(keys, k)
		}
		slices.Sort(keys)
		queries := []Addr{0, ^Addr(0)}
		for k := range ref {
			queries = append(queries, k-1, k, k+1)
		}
		for _, q := range queries {
			// Floor: the last key <= q.
			i := sort.Search(len(keys), func(i int) bool { return keys[i] > q })
			got, ok := x.Floor(q)
			if ok != (i > 0) || (ok && got != ref[keys[i-1]]) {
				return false
			}
			// Ceil: the first key >= q.
			i = sort.Search(len(keys), func(i int) bool { return keys[i] >= q })
			got, ok = x.Ceil(q)
			if ok != (i < len(keys)) || (ok && got != ref[keys[i]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
