package device

import (
	"fmt"

	"impacc/internal/sim"
	"impacc/internal/topo"
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

// LegKind names the hardware one leg of a copy runs over.
type LegKind uint8

// Leg kinds.
const (
	HostLeg   LegKind = iota // host memory to host memory, over the memory bus
	PCIeLeg                  // between host memory and device Dev
	PeerLeg                  // directly from device Dev to device Peer
	DeviceLeg                // within device Dev's memory (on-device DMA)
	ShmLeg                   // through the legacy shared-memory segment
)

// Leg is one step of a copy's route.
type Leg struct {
	Kind      LegKind
	Dev, Peer int
}

// Route is the legs of one copy, run back to back: one for a direct copy,
// two for a DtoD copy staged through host memory or for the legacy
// shared-memory transport. It is a value, so routing a copy allocates
// nothing.
type Route struct {
	legs [2]Leg
	n    int
}

// Len returns the number of legs.
func (r Route) Len() int { return r.n }

// Leg returns leg i.
func (r Route) Leg(i int) Leg { return r.legs[i] }

func oneLeg(l Leg) Route { return Route{legs: [2]Leg{l}, n: 1} }

// PlanCopy routes a copy of direction dir from src to dst on node of fab —
// the one driver memcpy of §3.7 (Figure 6 b/c). peer allows the direct PCIe
// path between two devices that share a root complex (GPUDirect /
// DirectGMA); otherwise a copy between distinct devices stages through host
// memory (DtoH then HtoD), exactly the distinction Figure 14 measures.
func PlanCopy(fab *topo.Fabric, node int, dir Direction, dst, src xmem.Loc, peer bool) Route {
	switch dir {
	case HtoH:
		return oneLeg(Leg{Kind: HostLeg})
	case HtoD:
		return oneLeg(Leg{Kind: PCIeLeg, Dev: dst.Device()})
	case DtoH:
		return oneLeg(Leg{Kind: PCIeLeg, Dev: src.Device()})
	}
	sd, dd := src.Device(), dst.Device()
	switch {
	case sd == dd:
		return oneLeg(Leg{Kind: DeviceLeg, Dev: sd})
	case peer && fab.CanP2P(node, sd, dd):
		return oneLeg(Leg{Kind: PeerLeg, Dev: sd, Peer: dd})
	}
	return Route{legs: [2]Leg{{Kind: PCIeLeg, Dev: sd}, {Kind: PCIeLeg, Dev: dd}}, n: 2}
}

// ShmRoute is the legacy MPI+OpenACC intra-node transport of Figure 6 (a):
// send buffer to the shared-memory segment, then on to the receive buffer —
// the redundant host-to-host copy.
func ShmRoute() Route { return Route{legs: [2]Leg{{Kind: ShmLeg}, {Kind: ShmLeg}}, n: 2} }

// Price charges leg l of an n-byte copy to node's shared resources from now
// and returns its completion time. A PCIe leg is initiated from CPU socket
// socket (-1 for the device's near socket) with a page-locked host buffer
// when pinned; other legs ignore both. On-device DMA reads and writes every
// byte at the bandwidth of the device holding the memory and holds no
// shared link.
func (l Leg) Price(fab *topo.Fabric, node int, n int64, socket int, pinned bool) sim.Time {
	switch l.Kind {
	case HostLeg:
		return fab.HostCopyAsync(node, n)
	case PCIeLeg:
		return fab.PCIeCopyAsync(node, l.Dev, socket, n, pinned)
	case PeerLeg:
		return fab.P2PCopyAsync(node, l.Dev, l.Peer, n)
	case DeviceLeg:
		bw := fab.Sys.Nodes[node].Devices[l.Dev].MemBWGBs
		return fab.Engine(node).Now() + sim.Time(sim.DurFromSeconds(2*float64(n)/(bw*1e9)))
	default:
		return fab.ShmCopyAsync(node, n)
	}
}

// Transfer performs a synchronous memory copy of n bytes from src to dst
// within the context's address space: it charges simulated time on the
// shared links (blocking p), moves the real bytes, and records stats. It
// returns the direction it classified. A copy between distinct devices
// takes the direct peer path when the topology allows it.
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
	rt := c.Dev.rt
	route := PlanCopy(rt.Fab, rt.NodeIdx, dir, dloc, sloc, true)
	start := p.Now()
	c.drive(p, route, n)
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
			c.drive(p, route, n)
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

// drive runs route's legs for n bytes back to back, blocking p on each.
// A PCIe leg resolves its initiating socket as it starts, so an unpinned
// context alternates sockets leg by leg.
func (c *Context) drive(p *sim.Proc, route Route, n int64) {
	rt := c.Dev.rt
	for i := 0; i < route.Len(); i++ {
		l := route.Leg(i)
		socket := -1
		if l.Kind == PCIeLeg {
			socket = c.effSocket()
		}
		end := l.Price(rt.Fab, rt.NodeIdx, n, socket, c.Pinned)
		if l.Kind == DeviceLeg {
			// On-device DMA parks as a plain sleep; the park kind shows
			// in stall dumps.
			p.Sleep(sim.Dur(end - p.Now()))
			continue
		}
		p.SleepUntil(end)
	}
}
