package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"impacc/internal/sim"

	"impacc/internal/mpi"
	"impacc/internal/xmem"
)

// Comm is an MPI communicator: an ordered group of tasks with an isolated
// matching context. Point-to-point and collective operations exist on both
// Task (MPI_COMM_WORLD shorthand) and Comm.
type Comm struct {
	t *Task
	// id is the context id carried by every message of this communicator;
	// matching never crosses ids. World is 0.
	id int
	// ranks maps communicator rank -> world rank.
	ranks []int
	// myRank is this task's rank within the communicator.
	myRank int
	// layout groups the members by node for the two-level collectives.
	// Built once per group and never written afterwards, so Dup and every
	// task's world view share one.
	layout *nodeLayout

	collSeq  int
	splitSeq int
}

// World returns the task's MPI_COMM_WORLD view.
func (t *Task) World() *Comm { return t.world }

// Rank returns the calling task's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank } //impacc:allow-unused reproduces the paper's MPI API (§3)

// Size returns the number of tasks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator rank to the world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] } //impacc:allow-unused reproduces the paper's MPI API (§3)

// ID returns the communicator's context id.
func (c *Comm) ID() int { return c.id } //impacc:allow-unused reproduces the paper's MPI API (§3)

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.ranks) {
		c.t.failf("comm %d: rank %d out of range [0,%d)", c.id, r, len(c.ranks))
	}
}

// nodeLayout groups a communicator's members by node. Node slots are
// numbered in first-seen order over the member list, which need not be node
// index order (a Split with shuffled keys reorders them).
type nodeLayout struct {
	// first[s] is the lowest communicator rank on slot s: its default
	// node leader.
	first []int
	// slot[crank] is the node slot of communicator rank crank.
	slot []int
	// group[s] lists the communicator ranks on slot s in ascending order.
	group [][]int
}

// newNodeLayout builds the layout of the group whose world ranks are ranks.
func newNodeLayout(ranks []int, placements []Placement) *nodeLayout {
	l := &nodeLayout{slot: make([]int, len(ranks))}
	slotOf := map[int]int{}
	for crank, wrank := range ranks {
		node := placements[wrank].Node
		s, ok := slotOf[node]
		if !ok {
			s = len(l.first)
			slotOf[node] = s
			l.first = append(l.first, crank)
			l.group = append(l.group, nil)
		}
		l.slot[crank] = s
		l.group[s] = append(l.group[s], crank)
	}
	return l
}

// newWorld builds the world communicator for a task over the runtime's
// shared world ranks and layout.
func (rt *Runtime) newWorld(t *Task) *Comm {
	return &Comm{t: t, id: 0, ranks: rt.worldRanks, layout: rt.worldLayout, myRank: t.rank}
}

// Split is MPI_Comm_split: tasks supplying the same color form a new
// communicator, ordered by (key, parent rank). Every member of the parent
// must call Split in the same order. Color < 0 (MPI_UNDEFINED) returns nil.
func (c *Comm) Split(color, key int) *Comm {
	t := c.t
	c.splitSeq++
	n := c.Size()
	// Every member learns the group from an allgather of (color, key) as two
	// int64. The group is control information the runtime itself needs, so
	// both buffers carry storage even on unbacked runs; their addresses and
	// sizes, and thus the exchange's pricing, do not depend on that.
	mine, pair := t.backedScratch(16)
	all, pairs := t.backedScratch(int64(16 * n))
	defer t.tempFree(mine)
	defer t.tempFree(all)
	binary.LittleEndian.PutUint64(pair, uint64(color))
	binary.LittleEndian.PutUint64(pair[8:], uint64(key))
	c.Allgather(mine, 2, mpi.Int64, all)
	if color < 0 {
		return nil
	}
	type member struct{ key, commRank int }
	var members []member
	for r := 0; r < n; r++ {
		p := pairs[16*r:]
		if int(binary.LittleEndian.Uint64(p)) == color {
			members = append(members, member{int(binary.LittleEndian.Uint64(p[8:])), r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].commRank < members[j].commRank
	})
	nc := &Comm{t: t, id: commID(c.id, c.splitSeq, color)}
	for i, m := range members {
		nc.ranks = append(nc.ranks, c.ranks[m.commRank])
		if m.commRank == c.myRank {
			nc.myRank = i
		}
	}
	nc.layout = newNodeLayout(nc.ranks, t.rt.placements)
	return nc
}

// Dup is MPI_Comm_dup: same group, fresh matching context.
func (c *Comm) Dup() *Comm { //impacc:allow-unused reproduces the paper's MPI API (§3)
	c.splitSeq++
	return &Comm{t: c.t, id: commID(c.id, c.splitSeq, -1), ranks: c.ranks,
		myRank: c.myRank, layout: c.layout}
}

// commID derives a deterministic context id shared by all members that
// compute it with the same inputs.
func commID(parent, seq, color int) int {
	h := fnv.New32a()
	var b [12]byte
	put := func(off, v int) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	put(0, parent)
	put(4, seq)
	put(8, color)
	h.Write(b[:])
	id := int(h.Sum32() & 0x7fffffff)
	if id == 0 {
		id = 1
	}
	return id
}

// ---- Communicator-scoped point-to-point ---------------------------------

// Send is MPI_Send on this communicator (dst is a communicator rank).
func (c *Comm) Send(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	c.checkRank(dst)
	c.p2p(uqSend, addr, count, dt, dst, tag, opts)
}

// Recv is MPI_Recv on this communicator.
func (c *Comm) Recv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	if src != AnySource {
		c.checkRank(src)
	}
	c.p2p(uqRecv, addr, count, dt, src, tag, opts)
}

// Isend is MPI_Isend on this communicator.
func (c *Comm) Isend(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) *Request {
	c.checkRank(dst)
	return c.p2p(uqIsend, addr, count, dt, dst, tag, opts)
}

// Irecv is MPI_Irecv on this communicator.
func (c *Comm) Irecv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) *Request {
	if src != AnySource {
		c.checkRank(src)
	}
	return c.p2p(uqIrecv, addr, count, dt, src, tag, opts)
}

// Sendrecv is MPI_Sendrecv on this communicator.
func (c *Comm) Sendrecv(sendAddr xmem.Addr, sendCount int, sdt mpi.Datatype, dst, sendTag int, //impacc:allow-unused reproduces the paper's MPI API (§3)
	recvAddr xmem.Addr, recvCount int, rdt mpi.Datatype, src, recvTag int, opts ...Opt) {
	sr := c.Isend(sendAddr, sendCount, sdt, dst, sendTag, opts...)
	rr := c.Irecv(recvAddr, recvCount, rdt, src, recvTag, opts...)
	c.t.Wait(sr, rr)
}

// Iprobe is MPI_Iprobe on this communicator: a non-blocking check for a
// matching message, returning its element count in dt units when present.
func (c *Comm) Iprobe(src, tag int, dt mpi.Datatype) (bool, int) {
	t := c.t
	wsrc := src
	if src != AnySource {
		c.checkRank(src)
		wsrc = c.ranks[src]
	}
	ok, bytes := t.node.hub.Probe(t.rank, wsrc, tag, c.id)
	return ok, int(bytes / dt.Size())
}

// Probe is MPI_Probe: block until a matching message is available,
// returning its element count. It polls the hub with exponential backoff;
// since a poll loop would keep the event queue alive forever, a probe that
// sees nothing for 60 virtual seconds aborts the task as a likely deadlock
// (real MPI would hang here).
func (c *Comm) Probe(src, tag int, dt mpi.Datatype) int {
	t := c.t
	start := t.proc.Now()
	backoff := sim.Dur(200)
	for {
		if ok, n := c.Iprobe(src, tag, dt); ok {
			t.mpiTime("probe", start)
			return n
		}
		if t.proc.Now()-start > sim.Time(60*sim.Second) {
			t.failf("Probe(src=%d, tag=%d): no matching message after 60s (deadlock?)", src, tag)
		}
		t.proc.Sleep(backoff)
		if backoff < sim.Millisecond {
			backoff *= 2
		}
	}
}
