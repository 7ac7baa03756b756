package xmem

import "fmt"

// HeapEntry records one hooked heap allocation (paper §3.8, Figure 7: "the
// IMPACC runtime hooks the heap-related routines, such as malloc(),
// calloc(), realloc(), free(), and etc., and it records the allocated heaps
// in the Heap Table").
type HeapEntry struct {
	Base Addr
	Size int64
	// Owner is the rank that allocated the heap.
	Owner int
	// Refs counts the tasks sharing the region via aliasing; allocations
	// start at 1.
	Refs int
	// Shared is set once the region has been aliased into by a consumer,
	// marking it as read-only shared.
	Shared bool
}

// HeapTable is the per-node registry of host heap allocations, keyed by base
// address with range lookup, plus the reference counting that node heap
// aliasing relies on.
type HeapTable struct {
	entries Index[*HeapEntry]
}

// NewHeapTable returns an empty table.
func NewHeapTable() *HeapTable { return &HeapTable{} }

// Register records a new allocation owned by rank.
func (h *HeapTable) Register(base Addr, size int64, rank int) *HeapEntry {
	e := &HeapEntry{Base: base, Size: size, Owner: rank, Refs: 1}
	h.entries.Put(base, e)
	return e
}

// Containing returns the entry whose range contains addr.
func (h *HeapTable) Containing(addr Addr) (*HeapEntry, bool) {
	e, ok := h.entries.Floor(addr)
	if !ok || addr >= e.Base+Addr(e.Size) {
		return nil, false
	}
	return e, true
}

// At returns the entry based exactly at addr.
func (h *HeapTable) At(addr Addr) (*HeapEntry, bool) {
	return h.entries.Get(addr)
}

// Share increments the reference count of the entry containing addr and
// marks it shared.
func (h *HeapTable) Share(addr Addr) (*HeapEntry, error) {
	e, ok := h.Containing(addr)
	if !ok {
		return nil, fmt.Errorf("xmem: Share(%#x): no heap entry", uint64(addr))
	}
	e.Refs++
	e.Shared = true
	return e, nil
}

// Release decrements the reference count of the entry containing addr.
// When the count reaches zero the entry is removed and lastRef is true: the
// caller must free the underlying segment (paper §3.8: "When the reference
// count becomes zero, it deallocates the heap region and removes the entry
// from the table").
func (h *HeapTable) Release(addr Addr) (entry *HeapEntry, lastRef bool, err error) {
	e, ok := h.Containing(addr)
	if !ok {
		return nil, false, fmt.Errorf("xmem: Release(%#x): no heap entry", uint64(addr))
	}
	if e.Refs <= 0 {
		return nil, false, fmt.Errorf("xmem: Release(%#x): refcount already %d", uint64(addr), e.Refs)
	}
	e.Refs--
	if e.Refs == 0 {
		h.entries.Delete(e.Base)
		return e, true, nil
	}
	return e, false, nil
}

// Drop removes the entry based at addr without touching refcounts — used
// when a receive buffer's heap is retired because its segment was aliased
// away ("removes the corresponding heap table entry").
func (h *HeapTable) Drop(addr Addr) bool {
	return h.entries.Delete(addr)
}
