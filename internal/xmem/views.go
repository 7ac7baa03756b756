package xmem

import (
	"fmt"
	"unsafe"
)

// Typed views over backed segments. Allocations are 64-byte aligned, so
// reinterpreting backing bytes as wider elements is safe.

// Float64s returns a []float64 view of n elements at addr. It returns nil
// for unbacked segments.
func (s *Space) Float64s(addr Addr, n int) ([]float64, error) {
	b, err := s.span("xmem: Float64s", addr, int64(n), 3)
	if err != nil || b == nil {
		return nil, err
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%8 != 0 {
		return nil, fmt.Errorf("xmem: Float64s(%#x): misaligned view", uint64(addr))
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(p)), n), nil
}
