package topo

import (
	"fmt"
	"slices"
	"strings"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

// Fabric materializes a System's shared transfer resources in a simulation
// engine and prices every kind of data movement the IMPACC runtime performs:
// host memcpy, PCIe transfers (with NUMA penalty), direct device-to-device
// PCIe copies, and internode network transfers.
//
// All *Async methods charge resource occupancy starting at the current
// virtual time and return the completion time without blocking; callers
// (device copies, message handlers) sleep until completion or attach
// callbacks.
type Fabric struct {
	Sys *System

	// Faults, when set, perturbs internode transfer pricing: link
	// degradation stretches NIC occupancy, NIC stalls delay injection.
	// The internal/fault package's Plan satisfies it.
	Faults NetFaults

	nodes []*NodeRes
	// engines[i] hosts node i's resources; all identical for an unsharded
	// fabric, one shard engine per node under parallel simulation.
	engines []*sim.Engine
}

// NetFaults is the slice of a chaos plan the fabric consults when pricing
// internode transfers.
type NetFaults interface {
	// LinkFactor returns the bandwidth-degradation multiplier (>= 1)
	// applied to node's NIC at virtual time at.
	LinkFactor(node int, at sim.Time) float64
	// SendStall returns an injection delay charged before node's NIC
	// accepts a transfer (zero when no stall fires).
	SendStall(node int) sim.Dur
}

// NodeRes holds the materialized shared resources of one node.
type NodeRes struct {
	// PCIe has one entry per device; nil for integrated devices.
	PCIe []*sim.FIFOResource
	// Inter is the inter-socket (QPI/HT) link.
	Inter *sim.FIFOResource
	// MemBus models the host memory system's copy bandwidth.
	MemBus *sim.FIFOResource
	// NICOut and NICIn are the network adapter's injection and ejection
	// sides.
	NICOut, NICIn *sim.FIFOResource
}

// NewShardedFabric builds the fabric with node i's resources living in
// engines[i] — the shard layout of parallel simulation. Every resource is
// only ever touched from its own engine's events; the internode path
// crosses engines exclusively through NetInjectAsync (source side) and
// NetAcceptAsync (destination side, run on the destination engine).
func NewShardedFabric(engines []*sim.Engine, sys *System) *Fabric {
	if len(engines) != len(sys.Nodes) {
		panic("topo: NewShardedFabric needs one engine per node")
	}
	f := &Fabric{Sys: sys, engines: engines}
	f.nodes = make([]*NodeRes, len(sys.Nodes))
	for i := range sys.Nodes {
		node := &sys.Nodes[i]
		eng := engines[i]
		nr := &NodeRes{
			Inter:  eng.NewFIFOResource(fmt.Sprintf("%s/inter", node.Name)),
			MemBus: eng.NewFIFOResource(fmt.Sprintf("%s/membus", node.Name)),
			NICOut: eng.NewFIFOResource(fmt.Sprintf("%s/nic-out", node.Name)),
			NICIn:  eng.NewFIFOResource(fmt.Sprintf("%s/nic-in", node.Name)),
		}
		nr.PCIe = make([]*sim.FIFOResource, len(node.Devices))
		for d := range node.Devices {
			if !node.Devices[d].Class.Integrated() {
				nr.PCIe[d] = eng.NewFIFOResource(
					fmt.Sprintf("%s/pcie%d", node.Name, d))
			}
		}
		f.nodes[i] = nr
	}
	return f
}

// Node returns the resources of node i.
func (f *Fabric) Node(i int) *NodeRes { return f.nodes[i] }

// Engine returns the engine hosting node i's resources.
func (f *Fabric) Engine(i int) *sim.Engine { return f.engines[i] }

// MinNetLatency returns the smallest fixed internode latency any node's NIC
// can achieve: min over nodes of link latency plus software overhead,
// excluding occupancy. It is the conservative lookahead bound for sharding
// the simulation by node — every cross-node event lands at least this far
// in the sender's future. Fault plans can only lengthen a transfer (stalls
// add delay, degradation stretches occupancy), never shorten it, so the
// bound holds under chaos without clamping. Returns 0 (no usable lookahead)
// if any node's NIC carries no fixed latency. The runtime decides its shard
// layout from it before any engine exists.
func (s *System) MinNetLatency() sim.Dur {
	min := sim.Dur(-1)
	for i := range s.Nodes {
		l := s.Nodes[i].NIC.Link
		fixed := l.Latency + l.SWOverhead
		if min < 0 || fixed < min {
			min = fixed
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// LinkUtilization is the telemetry gauge family carrying per-node link
// utilization: labels node and link (pcie<N>, inter, membus, nic-out,
// nic-in), values in [0, 1].
const LinkUtilization = "fabric_link_utilization"

var linkUtilization = telemetry.NewFamily(LinkUtilization, "per-node shared link utilization over the run",
	telemetry.KindGauge, "node", "link")

// pcieLinks are the link labels of the first PCIe links of a node.
var pcieLinks = [...]string{"pcie0", "pcie1", "pcie2", "pcie3", "pcie4", "pcie5", "pcie6", "pcie7"}

// pcieLink returns the link label of a node's d-th PCIe link.
func pcieLink(d int) string {
	if d < len(pcieLinks) {
		return pcieLinks[d]
	}
	return fmt.Sprintf("pcie%d", d)
}

// RecordUtilization writes one utilization gauge per shared link of every
// node: accumulated busy time divided by elapsed, clamped to [0, 1]. Call
// at the end of a run with the run's elapsed virtual time.
func (f *Fabric) RecordUtilization(reg *telemetry.Registry, elapsed sim.Dur) {
	if elapsed <= 0 {
		return
	}
	// Visit the nodes in name order, which a loaded system's count suffixes
	// (n-9, n-10) do not follow, so that each gauge extends its family
	// rather than moving every series after it.
	order := make([]int, len(f.Sys.Nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(f.Sys.Nodes[a].Name, f.Sys.Nodes[b].Name) })
	for _, i := range order {
		node, nr := f.Sys.Nodes[i].Name, f.nodes[i]
		// In label order, so each node's gauges extend the family in order.
		for _, l := range [...]struct {
			name string
			r    *sim.FIFOResource
		}{{"inter", nr.Inter}, {"membus", nr.MemBus}, {"nic-in", nr.NICIn}, {"nic-out", nr.NICOut}} {
			setUtilization(reg, node, l.name, l.r, elapsed)
		}
		for d, p := range nr.PCIe {
			setUtilization(reg, node, pcieLink(d), p, elapsed)
		}
	}
}

// setUtilization sets the utilization gauge of one link: r's busy time
// over elapsed, at most 1. A node without the link has a nil r.
func setUtilization(reg *telemetry.Registry, node, link string, r *sim.FIFOResource, elapsed sim.Dur) {
	if r != nil {
		reg.Gauge(linkUtilization, node, link).Set(min(float64(r.BusyTime())/float64(elapsed), 1))
	}
}

// HostCopyAsync prices an intra-node host-to-host memcpy of n bytes and
// returns its completion time.
func (f *Fabric) HostCopyAsync(node int, n int64) sim.Time {
	spec := &f.Sys.Nodes[node]
	occupy := sim.DurFromSeconds(float64(n) / (spec.HostMemGBs * 1e9))
	_, end := f.nodes[node].MemBus.UseAsync(occupy)
	return end + sim.Time(spec.HostCopySW)
}

// ShmCopyAsync prices one copy of the legacy inter-process shared-memory
// transport: host memcpy at the node's ShmFactor bandwidth plus the
// per-message IPC synchronization overhead. This is the "inter-process
// communication and/or redundant host-to-host memory copy" of Figure 6 (a).
func (f *Fabric) ShmCopyAsync(node int, n int64) sim.Time {
	spec := &f.Sys.Nodes[node]
	factor := spec.ShmFactor
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	occupy := sim.DurFromSeconds(float64(n) / (spec.HostMemGBs * factor * 1e9))
	_, end := f.nodes[node].MemBus.UseAsync(occupy)
	return end + sim.Time(spec.HostCopySW+spec.IPCOverhead)
}

// PCIeCopyAsync prices a host-to-device or device-to-host transfer of n
// bytes for device dev of node, initiated from CPU socket fromSocket.
// When fromSocket differs from the device's near socket, the node's NUMA
// penalty divides the effective bandwidth and the transfer also occupies
// the inter-socket link (paper §3.3, Figure 8). fromSocket < 0 means "near"
// (no penalty). pinned=false applies the node's PageableFactor (legacy
// application buffers); the IMPACC runtime's internal buffers are
// pre-pinned. Integrated devices cost one host copy instead.
func (f *Fabric) PCIeCopyAsync(node, dev, fromSocket int, n int64, pinned bool) sim.Time {
	spec := &f.Sys.Nodes[node]
	d := &spec.Devices[dev]
	if d.Class.Integrated() {
		return f.HostCopyAsync(node, n)
	}
	link := d.PCIe
	far := fromSocket >= 0 && fromSocket != d.Socket && spec.NUMAPenalty > 1
	occupy := link.Occupy(n)
	if !pinned && spec.PageableFactor > 0 && spec.PageableFactor < 1 {
		occupy = sim.Dur(float64(occupy) / spec.PageableFactor)
	}
	tail := link.Latency + link.SWOverhead
	nr := f.nodes[node]
	if far {
		occupy = sim.Dur(float64(occupy) * spec.NUMAPenalty)
		tail += spec.Inter.Latency
		// The inter-socket link carries the data volume at its own
		// bandwidth; the PCIe link is held for the penalty-inflated
		// duration (the transfer crawls at the far-socket rate).
		_, interEnd := nr.Inter.UseAsync(spec.Inter.Occupy(n))
		_, pcieEnd := nr.PCIe[dev].UseAsync(occupy)
		end := pcieEnd
		if interEnd > end {
			end = interEnd
		}
		return end + sim.Time(tail)
	}
	_, end := nr.PCIe[dev].UseAsync(occupy)
	return end + sim.Time(tail)
}

// P2PCopyAsync prices a direct device-to-device PCIe copy of n bytes between
// devices a and b of node, which must share a root complex. It occupies
// both device links for the same interval (paper §3.7: "the runtime copies
// data directly between devices over the PCIe without the involvement of
// the CPU or system memory").
func (f *Fabric) P2PCopyAsync(node, a, b int, n int64) sim.Time {
	spec := &f.Sys.Nodes[node]
	da, db := &spec.Devices[a], &spec.Devices[b]
	bw := da.P2PGBs
	if db.P2PGBs < bw {
		bw = db.P2PGBs
	}
	occupy := sim.DurFromSeconds(float64(n) / (bw * 1e9))
	tail := da.PCIe.Latency + da.PCIe.SWOverhead
	nr := f.nodes[node]
	_, end := sim.CoUseAsync(occupy, nr.PCIe[a], nr.PCIe[b])
	return end + sim.Time(tail)
}

// CanP2P reports whether a direct DtoD copy is possible between devices a
// and b of node: same root complex and both advertise P2P bandwidth.
func (f *Fabric) CanP2P(node, a, b int) bool {
	spec := &f.Sys.Nodes[node]
	if a == b || !spec.SameRootComplex(a, b) {
		return false
	}
	return spec.Devices[a].P2PGBs > 0 && spec.Devices[b].P2PGBs > 0
}

// netPrice computes the (possibly fault-degraded) NIC occupancy and fixed
// tail of an n-byte transfer injected by srcNode now toward dstNode. Under
// a generated topology (System.Topo) the tail additionally pays the route's
// extra switch hops; HopExtra is always >= 0, so the MinNetLatency
// lookahead bound is unaffected.
func (f *Fabric) netPrice(srcNode, dstNode int, n int64) (occupy sim.Dur, tail sim.Dur) {
	link := f.Sys.Nodes[srcNode].NIC.Link
	occupy = link.Occupy(n)
	tail = link.Latency + link.SWOverhead + f.Sys.HopExtra(srcNode, dstNode)
	if f.Faults != nil {
		now := f.engines[srcNode].Now()
		if factor := f.Faults.LinkFactor(srcNode, now); factor > 1 {
			occupy = sim.Dur(float64(occupy) * factor)
		}
		tail += f.Faults.SendStall(srcNode)
	}
	return occupy, tail
}

// NetInjectAsync prices the source half of an internode transfer toward
// dstNode: the source NIC's injection side is occupied from when it frees
// up, and the message's trailing byte reaches the destination NIC at the
// returned arrive time (injection end plus wire latency, topology hop
// extras, stalls included). The returned occupy is the transfer's wire
// occupancy, to be charged to the destination with NetAcceptAsync at
// arrive — on the destination's engine. arrive is always at least
// MinNetLatency past the source's current time, which is what makes it
// safe to schedule across shards.
func (f *Fabric) NetInjectAsync(srcNode, dstNode int, n int64) (arrive sim.Time, occupy sim.Dur) {
	occupy, tail := f.netPrice(srcNode, dstNode, n)
	_, end := f.nodes[srcNode].NICOut.UseAsync(occupy)
	return end + sim.Time(tail), occupy
}

// NetAcceptAsync charges the destination half of an internode transfer
// whose trailing byte arrives now (call it at the arrive time returned by
// NetInjectAsync, on the destination node's engine): the ejection side is
// occupied for occupy ending no earlier than now, and the returned deliver
// time is when the payload is fully ejected — exactly now when the NIC is
// idle, later when earlier arrivals still occupy it.
func (f *Fabric) NetAcceptAsync(dstNode int, occupy sim.Dur) (deliver sim.Time) {
	arrive := f.engines[dstNode].Now()
	_, deliver = f.nodes[dstNode].NICIn.UseAsyncFrom(arrive-sim.Time(occupy), occupy)
	return deliver
}

// RDMACapable reports whether both endpoints support direct accelerator
// memory access over the network (GPUDirect RDMA, paper §3.7): data moves
// from device memory to the NIC without staging through host memory.
func (f *Fabric) RDMACapable(srcNode, dstNode int) bool {
	return f.Sys.Nodes[srcNode].NIC.RDMA && f.Sys.Nodes[dstNode].NIC.RDMA
}
