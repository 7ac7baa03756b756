package xmem

import "slices"

// Index maps addresses to values, kept as parallel slices sorted by
// address. It backs every address map of the runtime: a space's segments,
// the heap table, and both halves of the OpenACC present table.
//
// The paper keeps the present table in balanced binary trees "to reduce
// the worst-case search time" (§3.4). Binary search over a sorted slice
// keeps that O(log n) search; Put and Delete shift the tail, O(n), which
// is cheap here because these maps hold tens of entries and see ten to
// thousands of lookups per insert. The zero value is an empty index.
type Index[V any] struct {
	keys []Addr
	vals []V
}

// upper returns the number of keys <= a. It is a hand-written loop over
// concrete Addr keys (slices.BinarySearch measured markedly slower on the
// Space.Lookup path) that halves the candidate range [lo, lo+n] the same
// way whichever side the probe falls, which measured faster than the
// classic lo/hi loop.
func (x *Index[V]) upper(a Addr) int {
	keys := x.keys
	lo, n := 0, len(keys)
	for n > 0 {
		half := n >> 1
		if keys[lo+half] <= a {
			lo += n - half
		}
		n = half
	}
	return lo
}

// Len returns the number of entries.
func (x *Index[V]) Len() int { return len(x.keys) }

// Put inserts or replaces the value for key.
func (x *Index[V]) Put(key Addr, val V) {
	i := x.upper(key)
	if i > 0 && x.keys[i-1] == key {
		x.vals[i-1] = val
		return
	}
	x.keys = slices.Insert(x.keys, i, key)
	x.vals = slices.Insert(x.vals, i, val)
}

// Get returns the value stored at key.
func (x *Index[V]) Get(key Addr) (V, bool) {
	if i := x.upper(key); i > 0 && x.keys[i-1] == key {
		return x.vals[i-1], true
	}
	var zero V
	return zero, false
}

// Delete removes key, reporting whether it was present.
func (x *Index[V]) Delete(key Addr) bool {
	i := x.upper(key)
	if i == 0 || x.keys[i-1] != key {
		return false
	}
	x.keys = slices.Delete(x.keys, i-1, i)
	x.vals = slices.Delete(x.vals, i-1, i)
	return true
}

// Floor returns the value with the greatest key <= a.
func (x *Index[V]) Floor(a Addr) (V, bool) {
	if i := x.upper(a); i > 0 {
		return x.vals[i-1], true
	}
	var zero V
	return zero, false
}

// Ceil returns the value with the smallest key >= a.
func (x *Index[V]) Ceil(a Addr) (V, bool) {
	i := x.upper(a)
	if i > 0 && x.keys[i-1] == a {
		i--
	}
	if i < len(x.keys) {
		return x.vals[i], true
	}
	var zero V
	return zero, false
}
