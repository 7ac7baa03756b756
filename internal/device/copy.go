package device

import (
	"fmt"

	"impacc/internal/sim"
	"impacc/internal/xmem"
)

// Direction classifies a memory copy by endpoint locations, the four cases
// of the paper's message fusion discussion (§3.7): HtoH, HtoD, DtoH, DtoD.
type Direction int

// Copy directions.
const (
	HtoH Direction = iota
	HtoD
	DtoH
	DtoD
)

func (d Direction) String() string {
	switch d {
	case HtoH:
		return "HtoH"
	case HtoD:
		return "HtoD"
	case DtoH:
		return "DtoH"
	default:
		return "DtoD"
	}
}

// Classify determines the copy direction from two resolved locations.
func Classify(dst, src xmem.Loc) Direction {
	switch {
	case src.Kind() == xmem.HostMem && dst.Kind() == xmem.HostMem:
		return HtoH
	case src.Kind() == xmem.HostMem:
		return HtoD
	case dst.Kind() == xmem.HostMem:
		return DtoH
	default:
		return DtoD
	}
}

// Record accumulates one finished copy into the context stats. It is
// exported for the message hub, which performs fused copies on behalf of
// tasks and attributes them to the receiving context.
func (c *Context) Record(dir Direction, n int64, elapsed sim.Dur) { c.record(dir, n, elapsed) }

// record accumulates one finished copy into the context stats.
func (c *Context) record(dir Direction, n int64, elapsed sim.Dur) {
	if h := c.copyBytes[dir]; h != nil {
		h.Observe(n)
	}
	switch dir {
	case HtoH:
		c.Stats.HtoHCount++
		c.Stats.HtoHBytes += n
		c.Stats.HtoHTime += elapsed
	case HtoD:
		c.Stats.HtoDCount++
		c.Stats.HtoDBytes += n
		c.Stats.HtoDTime += elapsed
	case DtoH:
		c.Stats.DtoHCount++
		c.Stats.DtoHBytes += n
		c.Stats.DtoHTime += elapsed
	case DtoD:
		c.Stats.DtoDCount++
		c.Stats.DtoDBytes += n
		c.Stats.DtoDTime += elapsed
	}
}

// Transfer performs a synchronous memory copy of n bytes from src to dst
// within the context's address space: it charges simulated time on the
// shared links (blocking p), moves the real bytes, and records stats. It
// returns the direction it classified.
//
// Device-to-device copies between distinct devices use the direct PCIe
// peer path when the topology allows it, otherwise they stage through host
// memory (DtoH then HtoD), exactly the distinction Figure 14 measures.
func (c *Context) Transfer(p *sim.Proc, dst, src xmem.Addr, n int64) (Direction, error) {
	return c.transferLane(p, -1, 0, dst, src, n)
}

// transferLane is Transfer attributed to a trace lane: stream copies pass
// their queue number and pre-allocated trace ID; synchronous copies run on
// the host lane (-1) and allocate an ID on demand.
func (c *Context) transferLane(p *sim.Proc, lane int, id uint64, dst, src xmem.Addr, n int64) (Direction, error) {
	if n < 0 {
		return HtoH, fmt.Errorf("device: Transfer: negative size %d", n)
	}
	dloc, err := c.Space.Lookup(dst)
	if err != nil {
		return HtoH, fmt.Errorf("device: Transfer dst: %w", err)
	}
	sloc, err := c.Space.Lookup(src)
	if err != nil {
		return HtoH, fmt.Errorf("device: Transfer src: %w", err)
	}
	dir := Classify(dloc, sloc)
	start := p.Now()
	rt := c.Dev.rt
	charge := func() {
		switch dir {
		case HtoH:
			rt.Fab.HostCopy(p, rt.NodeIdx, n)
		case HtoD:
			rt.Fab.PCIeCopy(p, rt.NodeIdx, dloc.Device(), c.effSocket(), n, c.Pinned)
		case DtoH:
			rt.Fab.PCIeCopy(p, rt.NodeIdx, sloc.Device(), c.effSocket(), n, c.Pinned)
		case DtoD:
			if sloc.Device() == dloc.Device() {
				// On-device DMA at device memory bandwidth (read + write).
				p.Sleep(sim.DurFromSeconds(2 * float64(n) / (c.Dev.Spec.MemBWGBs * 1e9)))
			} else if rt.Fab.CanP2P(rt.NodeIdx, sloc.Device(), dloc.Device()) {
				p.SleepUntil(rt.Fab.P2PCopyAsync(rt.NodeIdx, sloc.Device(), dloc.Device(), n))
			} else {
				// Staged: device -> host bounce buffer -> device.
				rt.Fab.PCIeCopy(p, rt.NodeIdx, sloc.Device(), c.effSocket(), n, c.Pinned)
				rt.Fab.PCIeCopy(p, rt.NodeIdx, dloc.Device(), c.effSocket(), n, c.Pinned)
			}
		}
	}
	charge()
	var copyErr error
	if ft := rt.Faults; ft != nil {
		// Transient copy failures: each failed attempt still spent its
		// fabric time, and the driver re-drives the transfer until it lands
		// or the retry budget runs out.
		for attempt := 1; ft.CopyFail(rt.NodeIdx); attempt++ {
			if attempt > ft.CopyRetries() {
				copyErr = fmt.Errorf("device: Transfer %s: copy failed after %d attempts", dir, attempt)
				break
			}
			charge()
		}
	}
	if copyErr == nil {
		copyErr = c.Space.Copy(dst, src, n)
	}
	// The fabric time above is spent whether or not the backing copy
	// succeeds, so the transfer is accounted and its span recorded before
	// any error propagates — otherwise a failing path would leak traced
	// time and break the profile's telescoping exactness.
	c.record(dir, n, sim.Dur(p.Now()-start))
	if c.Sink != nil {
		if id == 0 {
			id = c.Sink.NewID()
		}
		c.Sink.Span(id, lane, "copy", dir.String(), start, p.Now(), n)
	}
	return dir, copyErr
}
