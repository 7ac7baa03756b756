package core

import (
	"strconv"

	"impacc/internal/msg"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

// MPILatencyNs is the histogram family of per-task MPI operation
// latencies, labeled by rank and op (send, recv, isend, irecv, wait,
// barrier, bcast, reduce, gather, scatter, alltoall, scan, gatherv,
// scatterv, probe). Buckets are powers of two in virtual nanoseconds.
const MPILatencyNs = "core_mpi_latency_ns"

// mpiOpStats is a task's cached latency histogram and phase string
// ("mpi:<op>") for one MPI op.
type mpiOpStats struct {
	h     *telemetry.Histogram
	phase string
}

// mpiObserve records one completed MPI operation's latency for the task.
// Histograms and phase strings are created lazily per (rank, op) so only
// ops a task actually issues allocate series, and an op allocates nothing
// after its first call. Lean mode collapses the rank label to "all": tasks
// sharing a node then share one series per op (safe — a shard runs one
// process at a time), and the cross-shard merge adds the per-node
// aggregates commutatively, so per-rank telemetry stays O(ops) instead of
// O(ranks * ops) on generated large-scale systems.
func (t *Task) mpiObserve(op string, start sim.Time) {
	s, ok := t.mpiLat[op]
	if !ok {
		rank := "all"
		if !t.rt.lean {
			rank = strconv.Itoa(t.rank)
		}
		s = mpiOpStats{
			h: t.eng().Metrics.Histogram(MPILatencyNs,
				"per-task MPI operation latency by op",
				"rank", rank, "op", op),
			phase: "mpi:" + op,
		}
		t.mpiLat[op] = s
	}
	t.phase = s.phase
	s.h.Observe(int64(t.proc.Now() - start))
}

// mpiTime accounts a host call into MPI that started at start: the host
// time it blocked and the op's latency.
func (t *Task) mpiTime(op string, start sim.Time) {
	t.commTime += dur(t.proc.Now() - start)
	t.mpiObserve(op, start)
}

// mpiEnd is the epilogue of every blocking MPI call: mpiTime plus the
// call's span (see mpiSpan), whose ID it returns.
func (t *Task) mpiEnd(op string, start sim.Time, mark, peer int, bytes int64, cmds ...*msg.Cmd) uint64 {
	t.mpiTime(op, start)
	return t.mpiSpan(op, start, mark, peer, bytes, cmds...)
}
