// Package ptable implements the OpenACC present table (paper §3.4,
// Figure 3): the per-task map from host address ranges to device address
// ranges. Like the paper's two balanced binary trees, it keeps two sorted
// indexes — one by host address, one by device address — so both
// acc_deviceptr() (host→device) and acc_hostptr() (device→host) search in
// logarithmic time.
package ptable

import (
	"fmt"

	"impacc/internal/xmem"
)

// Entry maps one host data range to its device copy. Handle mirrors the
// OpenCL cl_mem field of Figure 3's Task 1 table: for CUDA-style devices it
// is zero and Dev is used directly (CUdeviceptr), while OpenCL-style
// devices carry the memory-object handle alongside the mapped address.
type Entry struct {
	Host   xmem.Addr // start address of host data
	Dev    xmem.Addr // start address of corresponding device data
	Size   int64     // size of the data in bytes
	Device int       // owning accelerator index within the node
	Handle uint64    // OpenCL-style memory object handle (0 for CUDA-style)
	// Refs counts nested data-region entries for the same range
	// (present_or_copyin semantics): the mapping is released when it
	// drops to zero.
	Refs int
}

// Table is one task's present table.
type Table struct {
	byHost xmem.Index[*Entry]
	byDev  xmem.Index[*Entry]
}

// New returns an empty present table.
func New() *Table { return &Table{} }

// Len reports the number of live entries.
func (t *Table) Len() int { return t.byHost.Len() }

// Insert records a new host↔device mapping with refcount 1. It rejects
// ranges overlapping an existing entry on either index.
func (t *Table) Insert(host, dev xmem.Addr, size int64, device int, handle uint64) (*Entry, error) {
	if size <= 0 {
		return nil, fmt.Errorf("ptable: Insert: size %d must be positive", size)
	}
	if e, _, ok := t.lookupHost(host); ok {
		return nil, fmt.Errorf("ptable: host range %#x overlaps entry at %#x", uint64(host), uint64(e.Host))
	}
	if he, ok := t.byHost.Ceil(host); ok && he.Host < host+xmem.Addr(size) {
		return nil, fmt.Errorf("ptable: host range %#x+%d overlaps entry at %#x", uint64(host), size, uint64(he.Host))
	}
	if e, _, ok := t.lookupDev(dev); ok {
		return nil, fmt.Errorf("ptable: device range %#x overlaps entry at %#x", uint64(dev), uint64(e.Dev))
	}
	if de, ok := t.byDev.Ceil(dev); ok && de.Dev < dev+xmem.Addr(size) {
		return nil, fmt.Errorf("ptable: device range %#x+%d overlaps entry at %#x", uint64(dev), size, uint64(de.Dev))
	}
	e := &Entry{Host: host, Dev: dev, Size: size, Device: device, Handle: handle, Refs: 1}
	t.byHost.Put(host, e)
	t.byDev.Put(dev, e)
	return e, nil
}

func (t *Table) lookupHost(addr xmem.Addr) (*Entry, int64, bool) {
	e, ok := t.byHost.Floor(addr)
	if !ok || addr >= e.Host+xmem.Addr(e.Size) {
		return nil, 0, false
	}
	return e, int64(addr - e.Host), true
}

func (t *Table) lookupDev(addr xmem.Addr) (*Entry, int64, bool) {
	e, ok := t.byDev.Floor(addr)
	if !ok || addr >= e.Dev+xmem.Addr(e.Size) {
		return nil, 0, false
	}
	return e, int64(addr - e.Dev), true
}

// FindHost returns the entry containing host address addr and the offset
// within it. This is the acc_deviceptr() direction.
func (t *Table) FindHost(addr xmem.Addr) (*Entry, int64, bool) { return t.lookupHost(addr) }

// DevicePtr translates a host address to the corresponding device address
// (acc_deviceptr).
func (t *Table) DevicePtr(host xmem.Addr) (xmem.Addr, error) {
	e, off, ok := t.lookupHost(host)
	if !ok {
		return xmem.Nil, fmt.Errorf("ptable: acc_deviceptr(%#x): host data not present", uint64(host))
	}
	return e.Dev + xmem.Addr(off), nil
}

// HostPtr translates a device address to the corresponding host address
// (acc_hostptr).
func (t *Table) HostPtr(dev xmem.Addr) (xmem.Addr, error) {
	e, off, ok := t.lookupDev(dev)
	if !ok {
		return xmem.Nil, fmt.Errorf("ptable: acc_hostptr(%#x): device data not present", uint64(dev))
	}
	return e.Host + xmem.Addr(off), nil
}

// Retain increments the refcount of the entry containing host (nested data
// regions over present data) and returns it.
func (t *Table) Retain(host xmem.Addr) (*Entry, bool) {
	e, _, ok := t.lookupHost(host)
	if !ok {
		return nil, false
	}
	e.Refs++
	return e, true
}

// Release decrements the refcount of the entry containing host. When it
// reaches zero the mapping is removed from both indexes and returned with
// last=true so the caller can free device memory.
func (t *Table) Release(host xmem.Addr) (e *Entry, last bool, err error) {
	e, _, ok := t.lookupHost(host)
	if !ok {
		return nil, false, fmt.Errorf("ptable: Release(%#x): not present", uint64(host))
	}
	e.Refs--
	if e.Refs > 0 {
		return e, false, nil
	}
	t.byHost.Delete(e.Host)
	t.byDev.Delete(e.Dev)
	return e, true, nil
}
