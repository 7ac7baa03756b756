package ptable

import (
	"testing"
	"testing/quick"

	"impacc/internal/xmem"
)

func TestInsertAndTranslate(t *testing.T) {
	pt := New()
	e, err := pt.Insert(0x1000, 0x9000, 256, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Refs != 1 {
		t.Fatalf("refs = %d", e.Refs)
	}
	d, err := pt.DevicePtr(0x1000 + 100)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0x9000+100 {
		t.Fatalf("DevicePtr = %#x", uint64(d))
	}
	h, err := pt.HostPtr(0x9000 + 255)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0x1000+255 {
		t.Fatalf("HostPtr = %#x", uint64(h))
	}
	if _, err := pt.DevicePtr(0x1000 + 256); err == nil {
		t.Fatal("one-past-end DevicePtr must fail")
	}
	if _, err := pt.HostPtr(0x5); err == nil {
		t.Fatal("unknown HostPtr must fail")
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	pt := New()
	if _, err := pt.Insert(0x1000, 0x9000, 256, 0, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		host, dev xmem.Addr
	}{
		{0x1000, 0xA000}, // exact host overlap
		{0x10FF, 0xA000}, // host tail overlap
		{0x0F80, 0xA000}, // host range straddles existing start
		{0x2000, 0x9000}, // exact device overlap
		{0x2000, 0x90FF}, // device tail overlap
		{0x2000, 0x8F80}, // device straddle
	}
	for _, c := range cases {
		if _, err := pt.Insert(c.host, c.dev, 256, 0, 0); err == nil {
			t.Errorf("Insert(%#x, %#x) should overlap", uint64(c.host), uint64(c.dev))
		}
	}
	if pt.Len() != 1 {
		t.Fatalf("len = %d after rejected inserts", pt.Len())
	}
	if _, err := pt.Insert(0x1000, 0x9000, 0, 0, 0); err == nil {
		t.Fatal("zero size must fail")
	}
}

func TestOpenCLHandleField(t *testing.T) {
	// Figure 3: Task 1's MIC table carries cl_mem handles alongside the
	// malloc()-reserved mapped addresses.
	pt := New()
	e, err := pt.Insert(0x4000, 0xB000, 128, 1, 0xC1C1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Handle != 0xC1C1 {
		t.Fatal("handle lost")
	}
	got, off, ok := pt.FindHost(0x4000 + 64)
	if !ok || got.Handle != 0xC1C1 || off != 64 {
		t.Fatalf("FindHost = %+v, %d, %v", got, off, ok)
	}
}

func TestRetainRelease(t *testing.T) {
	pt := New()
	pt.Insert(0x1000, 0x9000, 64, 0, 0)
	e, ok := pt.Retain(0x1000 + 8)
	if !ok || e.Refs != 2 {
		t.Fatalf("retain: %+v, %v", e, ok)
	}
	_, last, err := pt.Release(0x1000)
	if err != nil || last {
		t.Fatalf("first release: %v, %v", last, err)
	}
	_, last, err = pt.Release(0x1000 + 32)
	if err != nil || !last {
		t.Fatalf("second release: %v, %v", last, err)
	}
	if pt.Len() != 0 {
		t.Fatal("entry not removed")
	}
	if _, err := pt.HostPtr(0x9000); err == nil {
		t.Fatal("device index not cleaned")
	}
	if _, _, err := pt.Release(0x1000); err == nil {
		t.Fatal("release of absent entry must fail")
	}
	if _, ok := pt.Retain(0x1000); ok {
		t.Fatal("retain of absent entry must succeed=false")
	}
}

// Property: for non-overlapping mappings, DevicePtr and HostPtr are inverse
// bijections at every interior offset.
func TestTranslationInverseProperty(t *testing.T) {
	f := func(count uint8, sizes []uint16) bool {
		pt := New()
		n := int(count%20) + 1
		type m struct {
			host, dev xmem.Addr
			size      int64
		}
		var ms []m
		hbase, dbase := xmem.Addr(0x10000), xmem.Addr(0x900000)
		for i := 0; i < n; i++ {
			size := int64(300)
			if len(sizes) > 0 {
				size = int64(sizes[i%len(sizes)]%1000) + 1
			}
			if _, err := pt.Insert(hbase, dbase, size, 0, 0); err != nil {
				return false
			}
			ms = append(ms, m{hbase, dbase, size})
			hbase += xmem.Addr(size + 64)
			dbase += xmem.Addr(size + 64)
		}
		for _, mm := range ms {
			for _, off := range []int64{0, mm.size / 2, mm.size - 1} {
				d, err := pt.DevicePtr(mm.host + xmem.Addr(off))
				if err != nil {
					return false
				}
				h, err := pt.HostPtr(d)
				if err != nil || h != mm.host+xmem.Addr(off) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
