// Package xmem implements IMPACC's unified node virtual address space
// (paper §2.4, §3.4): a single 64-bit virtual space per node covering the
// host system memory and the device memories of every accelerator. It also
// provides the heap table and aliasing machinery behind the node heap
// aliasing technique (paper §3.8).
//
// Allocations carry real []byte backing by default, so applications compute
// on genuine data; "unbacked" allocations skip the backing (used for
// extreme-scale benchmark runs where only timing matters — the control path
// is identical).
package xmem

import "fmt"

// Addr is a virtual address in a node's unified address space.
type Addr uint64

// Nil is the invalid address.
const Nil Addr = 0

// Alignment of every allocation, in bytes.
const Alignment = 64

// Region bases. The host heap and each device's memory get disjoint ranges
// of the virtual space, so an address by itself identifies the memory it
// lives in — the property unified MPI communication routines rely on to
// "detect the data location from a virtual memory address" (paper §3.5).
const (
	hostBase   Addr = 0x0000_1000_0000_0000
	deviceBase Addr = 0x0000_2000_0000_0000
	deviceStep Addr = 0x0000_0100_0000_0000
)

// Kind classifies where a segment lives.
type Kind int

const (
	// HostMem is host heap memory.
	HostMem Kind = iota
	// DeviceMem is discrete accelerator memory.
	DeviceMem
)

func (k Kind) String() string {
	if k == HostMem {
		return "host"
	}
	return "device"
}

// Segment is one mapped range of the space.
type Segment struct {
	Base Addr
	Size int64
	Kind Kind
	// Device is the owning device index for DeviceMem segments, -1 for host.
	Device int
	// Backing is the real storage; nil for unbacked (model-only) segments
	// and for alias segments.
	Backing []byte
	// AliasTo, when non-Nil, redirects this segment into another
	// allocation (node heap aliasing, paper §3.8). Offsets map linearly.
	AliasTo Addr
}

// hitSeg is a cached lookup result: a segment that is not an alias, and
// its range [base, end); the zero value holds nothing.
type hitSeg struct {
	base, end Addr
	seg       *Segment
}

// Loc is a resolved address: the segment containing it and the offset
// within. For aliased segments, Loc refers to the final target.
type Loc struct {
	Seg *Segment
	Off int64
}

// Kind returns the location's memory kind.
func (l Loc) Kind() Kind { return l.Seg.Kind }

// Device returns the owning device, or -1 for host memory.
func (l Loc) Device() int { return l.Seg.Device }

// Space is one unified (or, in legacy mode, private per-process) virtual
// address space.
type Space struct {
	// hit holds the segments the last two searches resolved addresses to,
	// newest first, and lookup tries them before searching, without
	// touching the segments. Transfers alternate between two buffers, a
	// copy's two ends or a sender's and a receiver's: at seed 2016 two
	// entries serve 42-94% of the lookups of the impacc-perf workloads and
	// 48% of fig15's, where one entry serves 3-44% and 18%. Free and Alias
	// forget a segment they change.
	hit  [2]hitSeg
	name string
	segs Index[*Segment]

	nextHost Addr
	nextDev  []Addr
	devUsed  []int64
}

// NewSpace returns an empty space able to map numDevices device memories.
func NewSpace(name string, numDevices int) *Space {
	s := &Space{
		name:     name,
		nextHost: hostBase,
		nextDev:  make([]Addr, numDevices),
		devUsed:  make([]int64, numDevices),
	}
	for d := range s.nextDev {
		s.nextDev[d] = deviceBase + Addr(d)*deviceStep
	}
	return s
}

func align(n int64) int64 {
	return (n + Alignment - 1) &^ (Alignment - 1)
}

// AllocHost maps a host heap allocation of size bytes. backed controls
// whether real storage is attached.
func (s *Space) AllocHost(size int64, backed bool) (Addr, error) {
	if size <= 0 {
		return Nil, fmt.Errorf("xmem: AllocHost(%d): size must be positive", size)
	}
	base := s.nextHost
	s.nextHost += Addr(align(size))
	seg := &Segment{Base: base, Size: size, Kind: HostMem, Device: -1}
	if backed {
		seg.Backing = make([]byte, size)
	}
	s.segs.Put(base, seg)
	return base, nil
}

// AllocDevice maps a device memory allocation on device dev.
func (s *Space) AllocDevice(dev int, size int64, backed bool) (Addr, error) {
	if size <= 0 {
		return Nil, fmt.Errorf("xmem: AllocDevice(%d, %d): size must be positive", dev, size)
	}
	if dev < 0 || dev >= len(s.nextDev) {
		return Nil, fmt.Errorf("xmem: AllocDevice: no device %d in space %s", dev, s.name)
	}
	base := s.nextDev[dev]
	s.nextDev[dev] += Addr(align(size))
	seg := &Segment{Base: base, Size: size, Kind: DeviceMem, Device: dev}
	if backed {
		seg.Backing = make([]byte, size)
	}
	s.segs.Put(base, seg)
	s.devUsed[dev] += size
	return base, nil
}

// Free unmaps the segment based at addr. Freeing an alias segment does not
// touch the alias target (the heap table coordinates refcounted frees).
func (s *Space) Free(addr Addr) error {
	seg, ok := s.segs.Get(addr)
	if !ok {
		return fmt.Errorf("xmem: Free(%#x): not an allocation base in %s", uint64(addr), s.name)
	}
	s.segs.Delete(addr)
	s.forget(seg)
	if seg.AliasTo == Nil && seg.Kind == DeviceMem {
		s.devUsed[seg.Device] -= seg.Size
	}
	return nil
}

// Lookup resolves addr to its containing segment and offset, following
// alias redirections.
func (s *Space) Lookup(addr Addr) (Loc, error) {
	return s.lookup(addr, 0)
}

func (s *Space) lookup(addr Addr, depth int) (Loc, error) {
	for i := range s.hit {
		if h := &s.hit[i]; addr >= h.base && addr < h.end {
			return Loc{Seg: h.seg, Off: int64(addr - h.base)}, nil
		}
	}
	if depth > 8 {
		return Loc{}, fmt.Errorf("xmem: alias chain too deep at %#x", uint64(addr))
	}
	seg, ok := s.segs.Floor(addr)
	if !ok || addr >= seg.Base+Addr(seg.Size) {
		return Loc{}, fmt.Errorf("xmem: Lookup(%#x): unmapped address in %s", uint64(addr), s.name)
	}
	off := int64(addr - seg.Base)
	if seg.AliasTo != Nil {
		return s.lookup(seg.AliasTo+Addr(off), depth+1)
	}
	s.hit[1], s.hit[0] = s.hit[0], hitSeg{seg.Base, seg.Base + Addr(seg.Size), seg}
	return Loc{Seg: seg, Off: off}, nil
}

// forget drops seg from the lookup cache.
func (s *Space) forget(seg *Segment) {
	for i := range s.hit {
		if s.hit[i].seg == seg {
			s.hit[i] = hitSeg{}
		}
	}
}

// SegmentAt returns the raw segment based exactly at addr (not following
// aliases). Used by the aliasing machinery and tests.
func (s *Space) SegmentAt(addr Addr) (*Segment, bool) {
	return s.segs.Get(addr)
}

// RangeError reports an access of N units at Addr that does not fit in
// the mapping Addr lies in: Size bytes, with Addr at offset Off. N is out
// of range when negative, too.
type RangeError struct {
	Op        string
	Addr      Addr
	N         int64
	Off, Size int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("%s(%#x, %d): range escapes its mapping (size %d, off %d)",
		e.Op, uint64(e.Addr), e.N, e.Size, e.Off)
}

// Bytes returns the n bytes of real storage at addr, following aliases.
// It returns nil storage (no error) for unbacked segments.
func (s *Space) Bytes(addr Addr, n int64) ([]byte, error) {
	return s.span("xmem: Bytes", addr, n, 0)
}

// span returns the storage of n elements of 1<<shift bytes each at addr.
// The range check shifts the room left down rather than n up, so no n can
// overflow it.
func (s *Space) span(op string, addr Addr, n int64, shift uint) ([]byte, error) {
	loc, err := s.Lookup(addr)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > (loc.Seg.Size-loc.Off)>>shift {
		return nil, &RangeError{Op: op, Addr: addr, N: n, Off: loc.Off, Size: loc.Seg.Size}
	}
	if loc.Seg.Backing == nil {
		return nil, nil
	}
	return loc.Seg.Backing[loc.Off : loc.Off+n<<shift], nil
}

// Copy moves n bytes from src to dst within the space, when both are
// backed. Timing is priced elsewhere (topo.Fabric); Copy only performs the
// data semantics.
func (s *Space) Copy(dst, src Addr, n int64) error {
	db, err := s.Bytes(dst, n)
	if err != nil {
		return err
	}
	sb, err := s.Bytes(src, n)
	if err != nil {
		return err
	}
	if db != nil && sb != nil {
		copy(db, sb)
	}
	return nil
}

// CopyBetween moves n bytes from src in ssp to dst in dsp (two different
// spaces — the legacy-mode inter-process path and internode transfers).
func CopyBetween(dsp *Space, dst Addr, ssp *Space, src Addr, n int64) error {
	db, err := dsp.Bytes(dst, n)
	if err != nil {
		return err
	}
	sb, err := ssp.Bytes(src, n)
	if err != nil {
		return err
	}
	if db != nil && sb != nil {
		copy(db, sb)
	}
	return nil
}

// Alias redirects the whole segment based at dst into the range starting at
// target: after the call, loads and stores through dst resolve into
// target's allocation and dst's own backing is released. This is the
// mechanism of node heap aliasing (paper §3.8, Figure 7).
func (s *Space) Alias(dst, target Addr) error {
	seg, ok := s.segs.Get(dst)
	if !ok {
		return fmt.Errorf("xmem: Alias(%#x): not an allocation base", uint64(dst))
	}
	tloc, err := s.Lookup(target)
	if err != nil {
		return fmt.Errorf("xmem: Alias target: %w", err)
	}
	if tloc.Off+seg.Size > tloc.Seg.Size {
		return fmt.Errorf("xmem: Alias: %d bytes at target offset %d escape target segment (size %d)",
			seg.Size, tloc.Off, tloc.Seg.Size)
	}
	// Resolve to the final target so chains stay depth-1.
	s.forget(seg)
	seg.AliasTo = tloc.Seg.Base + Addr(tloc.Off)
	seg.Backing = nil
	if seg.Kind == DeviceMem {
		s.devUsed[seg.Device] -= seg.Size
	}
	return nil
}

// DeviceUsed reports live bytes on device dev.
func (s *Space) DeviceUsed(dev int) int64 { return s.devUsed[dev] }
