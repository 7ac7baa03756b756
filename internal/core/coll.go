package core

import (
	"slices"

	"impacc/internal/mpi"
	"impacc/internal/msg"
	"impacc/internal/xmem"
)

// Collective communications, implemented on communicators and re-exported
// on Task for MPI_COMM_WORLD. All collectives are blocking and must be
// called by every member in the same order (standard MPI semantics);
// internal messages use reserved negative tags scoped by the communicator's
// context id, so they never match application wildcard receives.
//
// MPI_Bcast follows the paper's two-level scheme (§3.8): the root sends the
// buffer to one task in every participating node and that task forwards it
// to the other tasks on its node — where the intra-node hops become node
// heap aliasing candidates when the readonly attribute is given. Among node
// leaders, small payloads ride a pipelined binomial tree; large payloads
// use bandwidth-optimal scatter + ring allgather (van de Geijn).

// Barrier is MPI_Barrier over MPI_COMM_WORLD.
func (t *Task) Barrier() { t.world.Barrier() }

// Bcast is MPI_Bcast over MPI_COMM_WORLD.
func (t *Task) Bcast(addr xmem.Addr, count int, dt mpi.Datatype, root int, opts ...Opt) {
	t.world.Bcast(addr, count, dt, root, opts...)
}

// Reduce is MPI_Reduce over MPI_COMM_WORLD.
func (t *Task) Reduce(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, root int, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.Reduce(sendAddr, recvAddr, count, dt, op, root, opts...)
}

// Allreduce is MPI_Allreduce over MPI_COMM_WORLD.
func (t *Task) Allreduce(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt) {
	t.world.Allreduce(sendAddr, recvAddr, count, dt, op, opts...)
}

// Gather is MPI_Gather over MPI_COMM_WORLD.
func (t *Task) Gather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, root int, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.Gather(sendAddr, count, dt, recvAddr, root, opts...)
}

// Scatter is MPI_Scatter over MPI_COMM_WORLD.
func (t *Task) Scatter(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, root int, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.Scatter(sendAddr, count, dt, recvAddr, root, opts...)
}

// Allgather is MPI_Allgather over MPI_COMM_WORLD.
func (t *Task) Allgather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.Allgather(sendAddr, count, dt, recvAddr, opts...)
}

// Alltoall is MPI_Alltoall over MPI_COMM_WORLD.
func (t *Task) Alltoall(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.Alltoall(sendAddr, count, dt, recvAddr, opts...)
}

// collBase reserves a fresh negative tag range for one collective instance
// on this communicator.
func (c *Comm) collBase() int {
	c.collSeq++
	return -(c.collSeq * 256)
}

// Barrier is MPI_Barrier: a dissemination barrier over the communicator.
func (c *Comm) Barrier() {
	t := c.t
	base := c.collBase()
	n := c.Size()
	if n == 1 {
		return
	}
	o := c.opts(nil)
	me := c.myRank
	round := 0
	for off := 1; off < n; off <<= 1 {
		tag := base - round
		dst := c.ranks[(me+off)%n]
		src := c.ranks[(me-off+n)%n]
		start := t.proc.Now()
		mark := t.traceMark()
		s := t.postSend(t.proc, t.scratch, 1, dst, tag, o)
		r := t.postRecv(t.proc, t.scratch, 1, src, tag, o)
		s.Done.Wait(t.proc)
		r.Done.Wait(t.proc)
		t.mpiEnd("barrier", start, mark, -1, 0)
		t.checkCmd(s)
		t.checkCmd(r)
		round++
	}
}

// leaders returns the node-leader communicator rank for every participating
// node in first-seen order, with root promoted to leader of its own node,
// plus this task's leader. The list is the layout's own unless root must be
// promoted; callers only read it.
func (c *Comm) leaders(root int) (list []int, myLeader int) {
	l := c.layout
	list = l.first
	if s := l.slot[root]; list[s] != root {
		list = slices.Clone(list)
		list[s] = root
	}
	return list, list[l.slot[c.myRank]]
}

// bcastSegBytes is the pipelining segment size for large internode
// broadcasts: the tree forwards segment s while receiving segment s+1, so
// a B-byte broadcast over a depth-d tree costs ~(d + B/seg) segment times
// instead of d × B. Segments between one (parent, child) pair share a tag;
// FIFO matching keeps them ordered. Intra-node forwarding stays
// whole-message so node heap aliasing remains applicable.
const bcastSegBytes = 4 << 20

// Bcast is MPI_Bcast: the root's buffer lands in every member's buffer.
func (c *Comm) Bcast(addr xmem.Addr, count int, dt mpi.Datatype, root int, opts ...Opt) {
	t := c.t
	c.checkRank(root)
	base := c.collBase()
	if c.Size() == 1 {
		return
	}
	o := c.collOpts(opts)
	buf, bytes := t.resolveBuf(addr, count, dt, o)
	leaders, myLeader := c.leaders(root)

	defer t.mpiEnd("bcast", t.proc.Now(), t.traceMark(), -1, bytes)

	// Phase 1 among node leaders: a segmented pipelined binomial tree for
	// small and medium payloads; bandwidth-optimal scatter + ring
	// allgather for large ones, where the root injects the payload once
	// instead of log(P) times.
	if c.myRank == myLeader {
		idx, rootIdx := c.layout.slot[c.myRank], c.layout.slot[root]
		var pend []*msg.Cmd
		if len(leaders) >= 4 && bytes >= int64(len(leaders))*bcastSegBytes {
			c.bcastScatterAllgather(buf, bytes, leaders, idx, rootIdx, base, o)
		} else {
			pend = c.bcastTree(buf, bytes, leaders, idx, rootIdx, base, o)
		}
		// Phase 2: forward whole buffers to the other member tasks on
		// this node (whole-message so the §3.8 aliasing requirements can
		// hold).
		for _, crank := range c.layout.group[idx] {
			if crank != c.myRank {
				pend = append(pend, t.postSend(t.proc, buf, bytes, c.ranks[crank], base-2, o))
			}
		}
		t.waitAll(pend...)
		return
	}
	// Non-leader: receive from the node leader.
	t.waitAll(t.postRecv(t.proc, buf, bytes, c.ranks[myLeader], base-2, o))
}

// bcastTree runs the segmented pipelined binomial tree among leaders and
// returns the pending child sends (waited by the caller together with the
// local fanout).
func (c *Comm) bcastTree(buf xmem.Addr, bytes int64, leaders []int, idx, rootIdx, base int, o callOpts) []*msg.Cmd {
	t := c.t
	parent := mpi.BcastParent(idx, rootIdx, len(leaders))
	kids := mpi.BcastChildren(idx, rootIdx, len(leaders))
	var pend []*msg.Cmd
	for off := int64(0); off < bytes; off += bcastSegBytes {
		segLen := bytes - off
		if segLen > bcastSegBytes {
			segLen = bcastSegBytes
		}
		seg := buf + xmem.Addr(off)
		if parent >= 0 {
			t.waitAll(t.postRecv(t.proc, seg, segLen, c.ranks[leaders[parent]], base-1, o))
		}
		for _, k := range kids {
			pend = append(pend, t.postSend(t.proc, seg, segLen, c.ranks[leaders[k]], base-1, o))
		}
	}
	return pend
}

// bcastScatterAllgather implements the large-message broadcast among
// leaders: the root scatters L chunks (injecting the payload exactly once),
// then a ring allgather circulates the chunks, for a total cost of about
// two full-message times regardless of the leader count.
func (c *Comm) bcastScatterAllgather(buf xmem.Addr, bytes int64, leaders []int, idx, rootIdx, base int, o callOpts) {
	t := c.t
	l := len(leaders)
	chunk := bytes / int64(l)
	off := func(i int) int64 { return int64(i) * chunk }
	size := func(i int) int64 {
		if i == l-1 {
			return bytes - off(i) // last chunk takes the remainder
		}
		return chunk
	}
	world := func(i int) int { return c.ranks[leaders[i]] }
	// Scatter: the root sends every other leader its chunk.
	if idx == rootIdx {
		var pend []*msg.Cmd
		for i := 0; i < l; i++ {
			if i == rootIdx {
				continue
			}
			pend = append(pend, t.postSend(t.proc, buf+xmem.Addr(off(i)), size(i), world(i), base-3, o))
		}
		t.waitAll(pend...)
	} else {
		t.waitAll(t.postRecv(t.proc, buf+xmem.Addr(off(idx)), size(idx), world(rootIdx), base-3, o))
	}
	// Ring allgather: at step s, leader i forwards chunk (i-s) mod l to
	// its successor and receives chunk (i-s-1) mod l from its predecessor.
	next := world((idx + 1) % l)
	prev := world((idx - 1 + l) % l)
	for s := 0; s < l-1; s++ {
		sendChunk := ((idx-s)%l + l) % l
		recvChunk := ((idx-s-1)%l + l) % l
		sc := t.postSend(t.proc, buf+xmem.Addr(off(sendChunk)), size(sendChunk), next, base-4, o)
		rc := t.postRecv(t.proc, buf+xmem.Addr(off(recvChunk)), size(recvChunk), prev, base-4, o)
		sc.Done.Wait(t.proc)
		rc.Done.Wait(t.proc)
		t.checkCmd(sc)
		t.checkCmd(rc)
	}
}

// Reduce is MPI_Reduce: elementwise op over all members' send buffers into
// the root's recv buffer, via a binomial tree.
func (c *Comm) Reduce(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, root int, opts ...Opt) {
	t := c.t
	c.checkRank(root)
	base := c.collBase()
	o := c.collOpts(opts)
	sbuf, bytes := t.resolveBuf(sendAddr, count, dt, o)
	n := c.Size()

	// Accumulator: root reduces in place in its recv buffer; others use a
	// temporary.
	var accAddr xmem.Addr
	if c.myRank == root {
		accAddr, _ = t.resolveBuf(recvAddr, count, dt, o)
	} else {
		accAddr = t.tempAlloc(bytes)
		defer t.tempFree(accAddr)
	}
	t.localCopy(accAddr, sbuf, bytes)

	if n > 1 {
		start := t.proc.Now()
		mark := t.traceMark()
		tmp := t.tempAlloc(bytes)
		// The tree moves runtime temporaries and already resolved
		// addresses, so its messages carry no clause.
		plain := c.opts(nil)
		for _, child := range mpi.ReduceChildren(c.myRank, root, n) {
			t.waitAll(t.postRecv(t.proc, tmp, bytes, c.ranks[child], base-1, plain))
			t.combine(op, dt, accAddr, tmp, count)
		}
		if parent := mpi.ReduceParent(c.myRank, root, n); parent >= 0 {
			t.waitAll(t.postSend(t.proc, accAddr, bytes, c.ranks[parent], base-1, plain))
		}
		t.tempFree(tmp)
		t.mpiEnd("reduce", start, mark, -1, bytes)
	}
}

// Allreduce is MPI_Allreduce: Reduce to rank 0 followed by Bcast.
func (c *Comm) Allreduce(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt) {
	c.Reduce(sendAddr, recvAddr, count, dt, op, 0, opts...)
	c.Bcast(recvAddr, count, dt, 0, opts...)
}

// Gather is MPI_Gather: every member's send block lands at the root's recv
// buffer at offset rank*count.
func (c *Comm) Gather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, root int, opts ...Opt) {
	c.gather(sendAddr, count, dt, recvAddr, blocks{}, root, opts)
}

// Gatherv is MPI_Gatherv: member i contributes counts[i] elements, landing
// at element offset displs[i] of the root's recv buffer. counts and displs
// are significant at the root only; each sender passes its own sendCount.
func (c *Comm) Gatherv(sendAddr xmem.Addr, sendCount int, dt mpi.Datatype,
	recvAddr xmem.Addr, counts, displs []int, root int, opts ...Opt) {
	c.gather(sendAddr, sendCount, dt, recvAddr, blocks{v: true, counts: counts, displs: displs}, root, opts)
}

// Scatter is MPI_Scatter: block rank*count of the root's send buffer lands
// in each member's recv buffer.
func (c *Comm) Scatter(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, root int, opts ...Opt) {
	c.scatter(sendAddr, blocks{}, dt, recvAddr, count, root, opts)
}

// Scatterv is MPI_Scatterv: the root sends counts[i] elements from offset
// displs[i] to member i.
func (c *Comm) Scatterv(sendAddr xmem.Addr, counts, displs []int, dt mpi.Datatype,
	recvAddr xmem.Addr, recvCount int, root int, opts ...Opt) {
	c.scatter(sendAddr, blocks{v: true, counts: counts, displs: displs}, dt, recvAddr, recvCount, root, opts)
}

// blocks lays out the root's buffer of a gather or scatter. The v forms
// give the layout explicitly: member i's block is counts[i] elements at
// element offset displs[i]. Gather and Scatter use the regular layout (v
// false), which needs no slices: every block is the root's own count of
// elements, member i's at offset i*count.
type blocks struct {
	v              bool
	counts, displs []int
}

// block returns member i's element count and offset, given the root's own
// count.
func (b blocks) block(i, count int) (n, displ int) {
	if !b.v {
		return count, i * count
	}
	return b.counts[i], b.displs[i]
}

// extent is the element count the layout spans over size members.
func (b blocks) extent(size, count int) int {
	total := 0
	for i := 0; i < size; i++ {
		if n, d := b.block(i, count); d+n > total {
			total = d + n
		}
	}
	return total
}

// gather is the body of Gather and Gatherv: every member's block lands in
// the root's recv buffer as b lays it out. The root's span records the
// total bytes of the regular layout and 0 for Gatherv.
func (c *Comm) gather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, b blocks, root int, opts []Opt) {
	t := c.t
	c.checkRank(root)
	base := c.collBase()
	o := c.collOpts(opts)
	sbuf, bytes := t.resolveBuf(sendAddr, count, dt, o)
	n := c.Size()
	name, rootBytes := "gather", bytes*int64(n)
	if b.v {
		name, rootBytes = "gatherv", 0
	}
	start := t.proc.Now()
	mark := t.traceMark()
	if c.myRank != root {
		s := t.postSend(t.proc, sbuf, bytes, c.ranks[root], base-1, o)
		s.Done.Wait(t.proc)
		t.mpiEnd(name, start, mark, c.ranks[root], bytes)
		t.checkCmd(s)
		return
	}
	if b.v && (len(b.counts) != n || len(b.displs) != n) {
		t.failf("Gatherv: counts/displs must have %d entries", n)
	}
	rbuf, _ := t.resolveBuf(recvAddr, b.extent(n, count), dt, o)
	var reqs []*msg.Cmd
	for crank := 0; crank < n; crank++ {
		cnt, displ := b.block(crank, count)
		slot := rbuf + xmem.Addr(int64(displ)*dt.Size())
		nbytes := int64(cnt) * dt.Size()
		if crank == root {
			t.localCopy(slot, sbuf, nbytes)
			continue
		}
		reqs = append(reqs, t.postRecv(t.proc, slot, nbytes, c.ranks[crank], base-1, o))
	}
	t.waitAll(reqs...)
	t.mpiEnd(name, start, mark, -1, rootBytes)
}

// scatter is the body of Scatter and Scatterv: each member's recv buffer
// gets its block of the root's send buffer as b lays it out. The root's
// span records the total bytes of the regular layout and 0 for Scatterv.
func (c *Comm) scatter(sendAddr xmem.Addr, b blocks, dt mpi.Datatype, recvAddr xmem.Addr, count, root int, opts []Opt) {
	t := c.t
	c.checkRank(root)
	base := c.collBase()
	o := c.collOpts(opts)
	rbuf, bytes := t.resolveBuf(recvAddr, count, dt, o)
	n := c.Size()
	name, rootBytes := "scatter", bytes*int64(n)
	if b.v {
		name, rootBytes = "scatterv", 0
	}
	start := t.proc.Now()
	mark := t.traceMark()
	if c.myRank != root {
		r := t.postRecv(t.proc, rbuf, bytes, c.ranks[root], base-1, o)
		r.Done.Wait(t.proc)
		t.mpiEnd(name, start, mark, c.ranks[root], bytes)
		t.checkCmd(r)
		return
	}
	if b.v && (len(b.counts) != n || len(b.displs) != n) {
		t.failf("Scatterv: counts/displs must have %d entries", n)
	}
	sbuf, _ := t.resolveBuf(sendAddr, b.extent(n, count), dt, o)
	var reqs []*msg.Cmd
	for crank := 0; crank < n; crank++ {
		cnt, displ := b.block(crank, count)
		slot := sbuf + xmem.Addr(int64(displ)*dt.Size())
		nbytes := int64(cnt) * dt.Size()
		if crank == root {
			t.localCopy(rbuf, slot, nbytes)
			continue
		}
		reqs = append(reqs, t.postSend(t.proc, slot, nbytes, c.ranks[crank], base-1, o))
	}
	t.waitAll(reqs...)
	t.mpiEnd(name, start, mark, -1, rootBytes)
}

// Allgather is MPI_Allgather: Gather to rank 0 followed by a Bcast of the
// assembled buffer.
func (c *Comm) Allgather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, opts ...Opt) {
	c.Gather(sendAddr, count, dt, recvAddr, 0, opts...)
	c.Bcast(recvAddr, count*c.Size(), dt, 0, opts...)
}

// Alltoall is MPI_Alltoall: block j of member i's send buffer lands at
// block i of member j's recv buffer (pairwise exchange schedule).
func (c *Comm) Alltoall(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, opts ...Opt) {
	t := c.t
	base := c.collBase()
	o := c.collOpts(opts)
	n := c.Size()
	me := c.myRank
	sbuf, _ := t.resolveBuf(sendAddr, count*n, dt, o)
	rbuf, _ := t.resolveBuf(recvAddr, count*n, dt, o)
	blk := int64(count) * dt.Size()
	t.localCopy(rbuf+xmem.Addr(int64(me)*blk), sbuf+xmem.Addr(int64(me)*blk), blk)
	start := t.proc.Now()
	mark := t.traceMark()
	var reqs []*msg.Cmd
	for step := 1; step < n; step++ {
		dst := (me + step) % n
		src := (me - step + n) % n
		reqs = append(reqs,
			t.postSend(t.proc, sbuf+xmem.Addr(int64(dst)*blk), blk, c.ranks[dst], base-1, o),
			t.postRecv(t.proc, rbuf+xmem.Addr(int64(src)*blk), blk, c.ranks[src], base-1, o))
	}
	t.waitAll(reqs...)
	t.mpiEnd("alltoall", start, mark, -1, blk*int64(n-1))
}

// ---- helpers -----------------------------------------------------------

// tempAlloc grabs runtime-internal scratch memory (not heap-table tracked,
// so it never participates in aliasing).
func (t *Task) tempAlloc(n int64) xmem.Addr {
	a, err := t.space.AllocHost(n, t.rt.Cfg.Backed)
	if err != nil {
		t.fail(err)
	}
	return a
}

// backedScratch is tempAlloc with storage attached whatever Config.Backed
// says, returned alongside the address: for runtime control data that must
// reach other tasks through simulated messages.
func (t *Task) backedScratch(n int64) (xmem.Addr, []byte) {
	a, err := t.space.AllocHost(n, true)
	if err != nil {
		t.fail(err)
	}
	b, _ := t.space.Bytes(a, n)
	return a, b
}

func (t *Task) tempFree(a xmem.Addr) {
	if err := t.space.Free(a); err != nil {
		t.fail(err)
	}
}

// collOpts is the prelude of every collective: its clauses on c, with an
// async clause rejected uniformly (the unified activity queue only carries
// point-to-point MPI ops, §3.6).
func (c *Comm) collOpts(opts []Opt) callOpts {
	o := c.opts(opts)
	if o.async >= 0 {
		c.t.failf("collectives do not accept async clauses")
	}
	return o
}

// waitAll blocks until each command completes in turn, failing the task on
// the first that failed.
func (t *Task) waitAll(cmds ...*msg.Cmd) {
	for _, cmd := range cmds {
		cmd.Done.Wait(t.proc)
		t.checkCmd(cmd)
	}
}

// localCopy moves bytes within the task (self-communication), charged as a
// normal transfer.
func (t *Task) localCopy(dst, src xmem.Addr, n int64) {
	if dst == src || n == 0 {
		return
	}
	if _, err := t.ep.Ctx.Transfer(t.proc, dst, src, n); err != nil {
		t.fail(err)
	}
}

// combine applies op elementwise: acc = op(acc, in).
func (t *Task) combine(op mpi.Op, dt mpi.Datatype, acc, in xmem.Addr, count int) {
	ab := t.Bytes(acc, int64(count)*dt.Size())
	ib := t.Bytes(in, int64(count)*dt.Size())
	if err := mpi.Reduce(op, dt, ab, ib, count); err != nil {
		t.fail(err)
	}
	t.Compute(float64(count))
}

// ReduceScatter is MPI_Reduce_scatter_block: the elementwise reduction of
// all members' send buffers (count*Size elements) is computed and block i
// (count elements) lands in member i's recv buffer.
func (c *Comm) ReduceScatter(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt) {
	t := c.t
	c.collOpts(opts)
	n := c.Size()
	// Only the funnel root materializes the full count*n reduction; the
	// other members pass Nil, which Reduce and Scatter never resolve
	// off-root. Allocating the scratch on every rank wasted count*n
	// elements per member.
	full := xmem.Nil
	if c.myRank == 0 {
		full = t.tempAlloc(int64(count*n) * dt.Size())
		defer t.tempFree(full)
	}
	c.Reduce(sendAddr, full, count*n, dt, op, 0, opts...)
	c.Scatter(full, count, dt, recvAddr, 0, opts...)
}

// Scan is MPI_Scan: member i receives op(x_0, ..., x_i), the inclusive
// prefix reduction in rank order, via a linear chain.
func (c *Comm) Scan(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt) {
	t := c.t
	base := c.collBase()
	o := c.collOpts(opts)
	sbuf, bytes := t.resolveBuf(sendAddr, count, dt, o)
	rbuf, _ := t.resolveBuf(recvAddr, count, dt, o)
	t.localCopy(rbuf, sbuf, bytes)
	me := c.myRank
	start := t.proc.Now()
	mark := t.traceMark()
	if me > 0 {
		prefix := t.tempAlloc(bytes)
		t.waitAll(t.postRecv(t.proc, prefix, bytes, c.ranks[me-1], base-1, o))
		// recv = op(prefix, mine): combine into the prefix then swap in.
		t.combine(op, dt, prefix, rbuf, count)
		t.localCopy(rbuf, prefix, bytes)
		t.tempFree(prefix)
	}
	if me < c.Size()-1 {
		t.waitAll(t.postSend(t.proc, rbuf, bytes, c.ranks[me+1], base-1, o))
	}
	t.mpiEnd("scan", start, mark, -1, bytes)
}

// ReduceScatter is MPI_Reduce_scatter_block over MPI_COMM_WORLD.
func (t *Task) ReduceScatter(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.ReduceScatter(sendAddr, recvAddr, count, dt, op, opts...)
}

// Scan is MPI_Scan over MPI_COMM_WORLD.
func (t *Task) Scan(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt) { //impacc:allow-unused reproduces the paper's MPI API (§3)
	t.world.Scan(sendAddr, recvAddr, count, dt, op, opts...)
}

// Gatherv is MPI_Gatherv over MPI_COMM_WORLD.
func (t *Task) Gatherv(sendAddr xmem.Addr, sendCount int, dt mpi.Datatype, //impacc:allow-unused reproduces the paper's MPI API (§3)
	recvAddr xmem.Addr, counts, displs []int, root int, opts ...Opt) {
	t.world.Gatherv(sendAddr, sendCount, dt, recvAddr, counts, displs, root, opts...)
}

// Scatterv is MPI_Scatterv over MPI_COMM_WORLD.
func (t *Task) Scatterv(sendAddr xmem.Addr, counts, displs []int, dt mpi.Datatype, //impacc:allow-unused reproduces the paper's MPI API (§3)
	recvAddr xmem.Addr, recvCount int, root int, opts ...Opt) {
	t.world.Scatterv(sendAddr, counts, displs, dt, recvAddr, recvCount, root, opts...)
}
