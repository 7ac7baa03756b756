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

var mpiLatency = telemetry.NewFamily(MPILatencyNs, "per-task MPI operation latency by op",
	telemetry.KindHistogram, "rank", "op")

// mpiOpStats is a task's cached latency histogram and phase string
// ("mpi:<op>") for one MPI op.
type mpiOpStats struct {
	op    string
	h     *telemetry.Histogram
	phase string
}

// mpiObserve records one completed MPI operation's latency for the task.
// Histograms and phase strings are created lazily per (rank, op) so only
// ops a task actually issues allocate series, and an op allocates nothing
// after its first call. A task issues a handful of ops, so they are found
// by a scan of a short slice, where comparing two names is a length test
// and at most a few bytes, not a hash. Lean mode collapses the rank label
// to "all": tasks sharing a node then share one series per op (safe — a
// shard runs one process at a time), and the cross-shard merge adds the
// per-node aggregates commutatively, so per-rank telemetry stays O(ops)
// instead of O(ranks * ops) on generated large-scale systems.
func (t *Task) mpiObserve(op string, start sim.Time) {
	var s *mpiOpStats
	for i := range t.mpiLat {
		if t.mpiLat[i].op == op {
			s = &t.mpiLat[i]
			break
		}
	}
	if s == nil {
		rank := "all"
		if !t.rt.lean {
			rank = strconv.Itoa(t.rank)
		}
		t.mpiLat = append(t.mpiLat, mpiOpStats{
			op:    op,
			h:     t.eng().Metrics.Histogram(mpiLatency, rank, op),
			phase: "mpi:" + op,
		})
		s = &t.mpiLat[len(t.mpiLat)-1]
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
