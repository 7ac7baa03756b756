package xmem

// Address-map microbenchmarks, the numbers behind BENCH_sim.json's
// xmem_index section. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/xmem/
//
// 5 and 40 segments span the measured range: no address map of the
// impacc-perf workloads holds more than 40 entries.

import (
	"fmt"
	"testing"
)

var sinkLoc Loc

// fillSpace maps n unbacked 4 KiB segments, alternating host and device
// memory, and returns an interior address of each.
func fillSpace(b *testing.B, s *Space, n int) []Addr {
	addrs := make([]Addr, n)
	for i := range addrs {
		var a Addr
		var err error
		if i%2 == 0 {
			a, err = s.AllocHost(4096, false)
		} else {
			a, err = s.AllocDevice(0, 4096, false)
		}
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = a + 100
	}
	return addrs
}

// BenchmarkSpaceLookup resolves interior addresses round-robin over n
// segments: the Floor search behind every Bytes, Copy and message send.
func BenchmarkSpaceLookup(b *testing.B) {
	for _, n := range []int{5, 40} {
		b.Run(fmt.Sprintf("segs=%d", n), func(b *testing.B) {
			s := NewSpace("bench", 1)
			addrs := fillSpace(b, s, n)
			b.ReportAllocs()
			b.ResetTimer()
			j := 0
			for i := 0; i < b.N; i++ {
				loc, err := s.Lookup(addrs[j])
				if err != nil {
					b.Fatal(err)
				}
				sinkLoc = loc
				if j++; j == n {
					j = 0
				}
			}
		})
	}
}

// BenchmarkSpaceAllocFree maps and unmaps one host segment next to five
// live ones. allocs/op is the cost of one segment in the address map.
func BenchmarkSpaceAllocFree(b *testing.B) {
	s := NewSpace("bench", 1)
	fillSpace(b, s, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.AllocHost(4096, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}
