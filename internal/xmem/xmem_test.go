package xmem

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	return NewSpace("test", 4)
}

func TestAllocHostBasics(t *testing.T) {
	s := newTestSpace(t)
	a, err := s.AllocHost(100, true)
	if err != nil {
		t.Fatal(err)
	}
	if a == Nil {
		t.Fatal("nil address")
	}
	if uint64(a)%Alignment != 0 {
		t.Fatalf("address %#x not %d-aligned", uint64(a), Alignment)
	}
	loc, err := s.Lookup(a)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Kind() != HostMem || loc.Device() != -1 || loc.Off != 0 {
		t.Fatalf("loc = %+v", loc)
	}
	// Interior address resolves with offset.
	loc, err = s.Lookup(a + 42)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Off != 42 {
		t.Fatalf("interior offset = %d", loc.Off)
	}
}

func TestAllocErrors(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.AllocHost(0, true); err == nil {
		t.Fatal("zero-size host alloc must fail")
	}
	if _, err := s.AllocHost(-5, true); err == nil {
		t.Fatal("negative host alloc must fail")
	}
	if _, err := s.AllocDevice(9, 10, true); err == nil {
		t.Fatal("alloc on missing device must fail")
	}
	if _, err := s.AllocDevice(-1, 10, true); err == nil {
		t.Fatal("alloc on negative device must fail")
	}
	if _, err := s.AllocDevice(0, 0, true); err == nil {
		t.Fatal("zero-size device alloc must fail")
	}
}

func TestDeviceAddressesIdentifyDevice(t *testing.T) {
	s := newTestSpace(t)
	a0, _ := s.AllocDevice(0, 64, true)
	a1, _ := s.AllocDevice(1, 64, true)
	l0, _ := s.Lookup(a0)
	l1, _ := s.Lookup(a1)
	if l0.Kind() != DeviceMem || l0.Device() != 0 {
		t.Fatalf("dev0 loc = %+v", l0)
	}
	if l1.Device() != 1 {
		t.Fatalf("dev1 loc = %+v", l1)
	}
	if s.DeviceUsed(0) != 64 || s.DeviceUsed(1) != 64 {
		t.Fatal("device usage wrong")
	}
}

func TestLookupUnmapped(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Lookup(0xdeadbeef); err == nil {
		t.Fatal("unmapped lookup must fail")
	}
	a, _ := s.AllocHost(64, true)
	if _, err := s.Lookup(a + 64); err == nil {
		t.Fatal("one-past-end lookup must fail")
	}
	if _, err := s.Lookup(a + 63); err != nil {
		t.Fatal("last byte must resolve")
	}
}

func TestFree(t *testing.T) {
	s := newTestSpace(t)
	a, _ := s.AllocHost(128, true)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(a); err == nil {
		t.Fatal("freed address still mapped")
	}
	if err := s.Free(a); err == nil {
		t.Fatal("double free must error")
	}
	if err := s.Free(a + 1); err == nil {
		t.Fatal("free of non-base must error")
	}
}

func TestBytesAndCopy(t *testing.T) {
	s := newTestSpace(t)
	a, _ := s.AllocHost(64, true)
	b, _ := s.AllocHost(64, true)
	ab, err := s.Bytes(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ab {
		ab[i] = byte(i)
	}
	if err := s.Copy(b, a, 64); err != nil {
		t.Fatal(err)
	}
	bb, _ := s.Bytes(b, 64)
	for i := range bb {
		if bb[i] != byte(i) {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
	if _, err := s.Bytes(a, 65); err == nil {
		t.Fatal("out-of-range Bytes must fail")
	}
}

func TestUnbackedSegments(t *testing.T) {
	s := newTestSpace(t)
	a, _ := s.AllocHost(1<<20, false)
	b, err := s.Bytes(a, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatal("unbacked segment returned storage")
	}
	// Copies touching unbacked segments are timing-only no-ops.
	c, _ := s.AllocHost(1<<20, true)
	if err := s.Copy(c, a, 1024); err != nil {
		t.Fatal(err)
	}
	if err := s.Copy(a, c, 1024); err != nil {
		t.Fatal(err)
	}
}

func TestCopyBetweenSpaces(t *testing.T) {
	s1 := NewSpace("s1", 0)
	s2 := NewSpace("s2", 0)
	a, _ := s1.AllocHost(32, true)
	b, _ := s2.AllocHost(32, true)
	ab, _ := s1.Bytes(a, 32)
	ab[7] = 0x5a
	if err := CopyBetween(s2, b, s1, a, 32); err != nil {
		t.Fatal(err)
	}
	bb, _ := s2.Bytes(b, 32)
	if bb[7] != 0x5a {
		t.Fatal("cross-space copy mismatch")
	}
}

func TestAliasRedirectsLoadsAndStores(t *testing.T) {
	s := newTestSpace(t)
	src, _ := s.AllocHost(800, true) // like Figure 7's 100-element src
	dst, _ := s.AllocHost(80, true)  // like the 10-element dst
	sb, _ := s.Bytes(src, 800)
	for i := range sb {
		sb[i] = byte(i % 251)
	}
	off := Addr(240)
	if err := s.Alias(dst, src+off); err != nil {
		t.Fatal(err)
	}
	db, err := s.Bytes(dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	for i := range db {
		if db[i] != byte((i+240)%251) {
			t.Fatalf("alias read mismatch at %d", i)
		}
	}
	// A store through the alias is visible in the source region (shared
	// memory, exactly what the readonly contract forbids apps to do but
	// what the mapping must physically provide).
	db[0] = 0xEE
	if sb[240] != 0xEE {
		t.Fatal("store through alias not visible in target")
	}
}

func TestAliasErrors(t *testing.T) {
	s := newTestSpace(t)
	src, _ := s.AllocHost(100, true)
	dst, _ := s.AllocHost(50, true)
	if err := s.Alias(dst+1, src); err == nil {
		t.Fatal("alias of non-base must fail")
	}
	if err := s.Alias(dst, src+60); err == nil {
		t.Fatal("alias escaping target must fail")
	}
	if err := s.Alias(dst, 0xdead); err == nil {
		t.Fatal("alias to unmapped target must fail")
	}
}

func TestAliasChainCollapses(t *testing.T) {
	s := newTestSpace(t)
	a, _ := s.AllocHost(64, true)
	b, _ := s.AllocHost(64, true)
	c, _ := s.AllocHost(64, true)
	if err := s.Alias(b, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Alias(c, b); err != nil {
		t.Fatal(err)
	}
	seg, _ := s.SegmentAt(c)
	if seg.AliasTo != a {
		t.Fatalf("chain not collapsed: c aliases %#x, want %#x", uint64(seg.AliasTo), uint64(a))
	}
	ab, _ := s.Bytes(a, 64)
	ab[5] = 9
	cb, _ := s.Bytes(c, 64)
	if cb[5] != 9 {
		t.Fatal("chained alias does not resolve")
	}
}

func TestFloat64Views(t *testing.T) {
	s := newTestSpace(t)
	a, _ := s.AllocHost(8*16, true)
	v, err := s.Float64s(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		v[i] = float64(i) * 1.5
	}
	// A view at an interior address shares the storage.
	w, err := s.Float64s(a+3*8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w[1] != 6.0 {
		t.Fatalf("interior view[1] = %v, want 6.0", w[1])
	}
	w[0] = 2.25
	if v[3] != 2.25 {
		t.Fatal("store through interior view not visible")
	}
	if z, err := s.Float64s(a+16*8-8, 0); err != nil || len(z) != 0 {
		t.Fatalf("empty view = %v, %v", z, err)
	}
	// Unbacked views are nil, not errors.
	u, _ := s.AllocHost(128, false)
	nv, err := s.Float64s(u, 16)
	if err != nil || nv != nil {
		t.Fatalf("unbacked view = %v, %v", nv, err)
	}
}

func TestHeapTableRegisterLookup(t *testing.T) {
	h := NewHeapTable()
	e := h.Register(0x1000, 256, 3)
	if e.Refs != 1 || e.Owner != 3 {
		t.Fatalf("entry = %+v", e)
	}
	got, ok := h.Containing(0x1000 + 100)
	if !ok || got != e {
		t.Fatal("Containing failed for interior address")
	}
	if _, ok := h.Containing(0x1000 + 256); ok {
		t.Fatal("Containing matched past end")
	}
	if _, ok := h.At(0x1000); !ok {
		t.Fatal("At(base) failed")
	}
	if _, ok := h.At(0x1001); ok {
		t.Fatal("At(non-base) matched")
	}
}

func TestHeapTableShareRelease(t *testing.T) {
	h := NewHeapTable()
	h.Register(0x1000, 256, 0)
	e, err := h.Share(0x1000 + 8)
	if err != nil {
		t.Fatal(err)
	}
	if e.Refs != 2 || !e.Shared {
		t.Fatalf("after share: %+v", e)
	}
	_, last, err := h.Release(0x1000)
	if err != nil || last {
		t.Fatalf("first release: last=%v err=%v", last, err)
	}
	_, last, err = h.Release(0x1000 + 100)
	if err != nil || !last {
		t.Fatalf("second release: last=%v err=%v", last, err)
	}
	if h.entries.Len() != 0 {
		t.Fatal("entry not removed at zero refs")
	}
	if _, _, err := h.Release(0x1000); err == nil {
		t.Fatal("release of removed entry must fail")
	}
	if _, err := h.Share(0x9999); err == nil {
		t.Fatal("share of unknown region must fail")
	}
}

func TestHeapTableDrop(t *testing.T) {
	h := NewHeapTable()
	h.Register(0x2000, 64, 1)
	if !h.Drop(0x2000) {
		t.Fatal("drop failed")
	}
	if h.Drop(0x2000) {
		t.Fatal("double drop succeeded")
	}
}

// Property: every allocated address resolves to offset 0 at its base, and
// the byte at base+i resolves to offset i, across interleaved host/device
// allocations.
func TestLookupOffsetsProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSpace("p", 2)
		type rec struct {
			addr Addr
			size int64
		}
		var recs []rec
		for i, sz := range sizes {
			size := int64(sz%1000) + 1
			var a Addr
			var err error
			if i%2 == 0 {
				a, err = s.AllocHost(size, false)
			} else {
				a, err = s.AllocDevice(i%2, size, false)
			}
			if err != nil {
				return false
			}
			recs = append(recs, rec{a, size})
		}
		for _, r := range recs {
			for _, off := range []int64{0, r.size / 2, r.size - 1} {
				loc, err := s.Lookup(r.addr + Addr(off))
				if err != nil || loc.Off != off {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: heap table refcount bookkeeping — total refs equals
// registrations + shares - releases for live entries.
func TestHeapRefcountProperty(t *testing.T) {
	f := func(shares uint8) bool {
		h := NewHeapTable()
		h.Register(0x1000, 4096, 0)
		n := int(shares % 20)
		for i := 0; i < n; i++ {
			if _, err := h.Share(0x1000); err != nil {
				return false
			}
		}
		if h.entries.vals[0].Refs != n+1 {
			return false
		}
		for i := 0; i <= n; i++ {
			_, last, err := h.Release(0x1000)
			if err != nil {
				return false
			}
			if last != (i == n) {
				return false
			}
		}
		return h.entries.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindStringsAndAccessors(t *testing.T) {
	if HostMem.String() != "host" || DeviceMem.String() != "device" {
		t.Fatal("kind strings wrong")
	}
	s := NewSpace("named", 1)
	if s.name != "named" {
		t.Fatal("name lost")
	}
	s.AllocHost(64, true)
	s.AllocDevice(0, 64, true)
	if s.segs.Len() != 2 {
		t.Fatalf("segments = %d", s.segs.Len())
	}
}

func TestCopyErrorsOnBadRanges(t *testing.T) {
	s := NewSpace("c", 0)
	a, _ := s.AllocHost(64, true)
	if err := s.Copy(a, 0xdead, 8); err == nil {
		t.Fatal("copy from unmapped src must fail")
	}
	if err := s.Copy(0xdead, a, 8); err == nil {
		t.Fatal("copy to unmapped dst must fail")
	}
	s2 := NewSpace("c2", 0)
	b, _ := s2.AllocHost(64, true)
	if err := CopyBetween(s2, b, s, 0xdead, 8); err == nil {
		t.Fatal("cross-space copy from unmapped src must fail")
	}
	if err := CopyBetween(s2, 0xdead, s, a, 8); err == nil {
		t.Fatal("cross-space copy to unmapped dst must fail")
	}
	// Negative and overflowing lengths are range errors on backed and
	// unbacked segments alike.
	u, _ := s.AllocHost(64, false)
	for _, n := range []int64{-8, math.MaxInt64} {
		for _, at := range []Addr{a + 8, u + 8} {
			var re *RangeError
			if err := s.Copy(at, at, n); !errors.As(err, &re) {
				t.Fatalf("Copy(%#x, %d) = %v, want *RangeError", uint64(at), n, err)
			}
		}
	}
}

func TestViewRangeErrors(t *testing.T) {
	s := NewSpace("v", 0)
	a, _ := s.AllocHost(64, true)
	if _, err := s.Float64s(a, 9); err == nil {
		t.Fatal("oversized float view must fail")
	}
	if _, err := s.Float64s(0xdead, 1); err == nil {
		t.Fatal("unmapped float view must fail")
	}
	// n*8 would wrap for the largest n; both it and -1 are range errors.
	for _, n := range []int{-1, math.MaxInt} {
		var re *RangeError
		if _, err := s.Float64s(a, n); !errors.As(err, &re) {
			t.Fatalf("Float64s(%d) = %v, want *RangeError", n, err)
		}
	}
	u, _ := s.AllocHost(64, false)
	fv, err := s.Float64s(u, 8)
	if err != nil || fv != nil {
		t.Fatal("unbacked float view should be nil, no error")
	}
}
