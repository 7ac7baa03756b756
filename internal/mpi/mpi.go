// Package mpi holds the pure (simulation-free) MPI semantics the IMPACC
// runtime builds on: datatypes, reduction operators, and the binomial-tree
// schedules used by the collective algorithms. The transport and matching
// engine live in internal/msg; the task-facing API in internal/core.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Datatype is an MPI basic datatype.
type Datatype int

// Basic datatypes.
const (
	Byte Datatype = iota
	Int32
	Int64
	Float32
	Float64
)

// Size returns the datatype extent in bytes.
func (d Datatype) Size() int64 {
	switch d {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	default:
		return 8
	}
}

func (d Datatype) String() string {
	switch d {
	case Byte:
		return "MPI_BYTE"
	case Int32:
		return "MPI_INT"
	case Int64:
		return "MPI_LONG_LONG"
	case Float32:
		return "MPI_FLOAT"
	case Float64:
		return "MPI_DOUBLE"
	default:
		return fmt.Sprintf("Datatype(%d)", int(d))
	}
}

// Op is an MPI reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Prod
	Max
	Min
)

func (o Op) String() string {
	switch o {
	case Sum:
		return "MPI_SUM"
	case Prod:
		return "MPI_PROD"
	case Max:
		return "MPI_MAX"
	default:
		return "MPI_MIN"
	}
}

func (o Op) combineF(a, b float64) float64 {
	switch o {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		return math.Max(a, b)
	default:
		return math.Min(a, b)
	}
}

func (o Op) combineI(a, b int64) int64 {
	switch o {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		if a > b {
			return a
		}
		return b
	default:
		if a < b {
			return a
		}
		return b
	}
}

// Reduce applies acc[i] = op(acc[i], in[i]) elementwise over count elements
// of the given datatype, interpreting the byte slices in little-endian
// layout. Nil slices (unbacked buffers) are a no-op.
func Reduce(op Op, dtype Datatype, acc, in []byte, count int) error {
	if acc == nil || in == nil {
		return nil
	}
	sz := dtype.Size()
	need := sz * int64(count)
	if int64(len(acc)) < need || int64(len(in)) < need {
		return fmt.Errorf("mpi: Reduce: buffers too short for %d x %v", count, dtype)
	}
	for i := 0; i < count; i++ {
		a := acc[int64(i)*sz:]
		b := in[int64(i)*sz:]
		switch dtype {
		case Float64:
			va := math.Float64frombits(binary.LittleEndian.Uint64(a))
			vb := math.Float64frombits(binary.LittleEndian.Uint64(b))
			binary.LittleEndian.PutUint64(a, math.Float64bits(op.combineF(va, vb)))
		case Float32:
			va := math.Float32frombits(binary.LittleEndian.Uint32(a))
			vb := math.Float32frombits(binary.LittleEndian.Uint32(b))
			binary.LittleEndian.PutUint32(a, math.Float32bits(float32(op.combineF(float64(va), float64(vb)))))
		case Int64:
			va := int64(binary.LittleEndian.Uint64(a))
			vb := int64(binary.LittleEndian.Uint64(b))
			binary.LittleEndian.PutUint64(a, uint64(op.combineI(va, vb)))
		case Int32:
			va := int64(int32(binary.LittleEndian.Uint32(a)))
			vb := int64(int32(binary.LittleEndian.Uint32(b)))
			binary.LittleEndian.PutUint32(a, uint32(int32(op.combineI(va, vb))))
		case Byte:
			a[0] = byte(op.combineI(int64(a[0]), int64(b[0])))
		}
	}
	return nil
}

// rel maps rank into the tree rooted at root: the root becomes 0.
func rel(rank, root, size int) int { return (rank - root + size) % size }

// abs undoes rel.
func abs(r, root, size int) int { return (r + root) % size }

// BcastParent returns the binomial-tree parent of rank for a broadcast
// rooted at root, or -1 for the root itself.
func BcastParent(rank, root, size int) int {
	r := rel(rank, root, size)
	if r == 0 {
		return -1
	}
	// Clear the lowest set bit.
	return abs(r&(r-1), root, size)
}

// BcastChildren appends the binomial-tree children of rank for a broadcast
// rooted at root to kids and returns the extended slice. They come in the
// order the rank sends to them: largest subtree first, so deep subtrees
// start forwarding while the parent serves its remaining children — the
// ordering that makes the tree pipeline in depth×hop time rather than
// sum-of-depths. Callers pass a reused slice to keep collectives free of
// allocation.
func BcastChildren(kids []int, rank, root, size int) []int {
	n := len(kids)
	kids = ReduceChildren(kids, rank, root, size)
	slices.Reverse(kids[n:])
	return kids
}

// ReduceChildren appends the ranks whose partial results rank combines in
// a binomial-tree reduction to root to kids, in receive order: smallest
// subtree first (those partials are ready earliest) — the reverse of the
// broadcast schedule.
func ReduceChildren(kids []int, rank, root, size int) []int {
	r := rel(rank, root, size)
	// The lowest set bit of r (or size's span for the root) bounds the
	// subtree this rank owns.
	lb := r & (-r)
	if r == 0 {
		lb = 1 << 62
	}
	for bit := 1; bit < lb && r+bit < size; bit <<= 1 {
		kids = append(kids, abs(r+bit, root, size))
	}
	return kids
}

// ReduceParent returns the rank that rank sends its partial result to.
func ReduceParent(rank, root, size int) int {
	return BcastParent(rank, root, size)
}
