package mpi

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestDatatypeSizes(t *testing.T) {
	cases := map[Datatype]int64{Byte: 1, Int32: 4, Int64: 8, Float32: 4, Float64: 8}
	for d, want := range cases {
		if d.Size() != want {
			t.Errorf("%v size = %d, want %d", d, d.Size(), want)
		}
	}
	if Float64.String() != "MPI_DOUBLE" || Sum.String() != "MPI_SUM" {
		t.Fatal("names wrong")
	}
}

func f64bytes(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func f64read(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func TestReduceFloat64Ops(t *testing.T) {
	acc := f64bytes(1, 5, -2)
	in := f64bytes(3, 2, -7)
	if err := Reduce(Sum, Float64, acc, in, 3); err != nil {
		t.Fatal(err)
	}
	got := f64read(acc, 3)
	want := []float64{4, 7, -9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum = %v, want %v", got, want)
		}
	}
	acc = f64bytes(1, 5, -2)
	Reduce(Max, Float64, acc, f64bytes(3, 2, -7), 3)
	got = f64read(acc, 3)
	want = []float64{3, 5, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("max = %v, want %v", got, want)
		}
	}
	acc = f64bytes(2, 5)
	Reduce(Min, Float64, acc, f64bytes(3, 1), 2)
	if g := f64read(acc, 2); g[0] != 2 || g[1] != 1 {
		t.Fatalf("min = %v", g)
	}
	acc = f64bytes(2, 5)
	Reduce(Prod, Float64, acc, f64bytes(3, -1), 2)
	if g := f64read(acc, 2); g[0] != 6 || g[1] != -5 {
		t.Fatalf("prod = %v", g)
	}
}

func TestReduceInt32AndInt64(t *testing.T) {
	acc := make([]byte, 8)
	in := make([]byte, 8)
	binary.LittleEndian.PutUint32(acc, uint32(0xFFFFFFFF)) // -1 as int32
	binary.LittleEndian.PutUint32(in, 5)
	if err := Reduce(Sum, Int32, acc, in, 1); err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(acc)); got != 4 {
		t.Fatalf("int32 sum = %d", got)
	}
	binary.LittleEndian.PutUint64(acc, uint64(1<<40))
	binary.LittleEndian.PutUint64(in, uint64(1<<41))
	Reduce(Max, Int64, acc, in, 1)
	if got := int64(binary.LittleEndian.Uint64(acc)); got != 1<<41 {
		t.Fatalf("int64 max = %d", got)
	}
}

func TestReduceByte(t *testing.T) {
	acc := []byte{200}
	Reduce(Max, Byte, acc, []byte{17}, 1)
	if acc[0] != 200 {
		t.Fatal("byte max wrong")
	}
}

func TestReduceErrorsAndNil(t *testing.T) {
	if err := Reduce(Sum, Float64, make([]byte, 8), make([]byte, 8), 2); err == nil {
		t.Fatal("short buffer must error")
	}
	if err := Reduce(Sum, Float64, nil, make([]byte, 8), 1); err != nil {
		t.Fatal("nil buffers must be a no-op")
	}
}

func TestBcastTreeStructure(t *testing.T) {
	// size 8, root 0: classic binomial tree.
	if BcastParent(0, 0, 8) != -1 {
		t.Fatal("root has no parent")
	}
	cases := map[int]int{1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 6}
	for rank, parent := range cases {
		if got := BcastParent(rank, 0, 8); got != parent {
			t.Errorf("parent(%d) = %d, want %d", rank, got, parent)
		}
	}
	// Largest subtree first: pipelined binomial order.
	kids0 := BcastChildren(0, 0, 8)
	if len(kids0) != 3 || kids0[0] != 4 || kids0[1] != 2 || kids0[2] != 1 {
		t.Fatalf("children(0) = %v", kids0)
	}
	// Reduce receives the shallow subtrees first.
	red0 := ReduceChildren(0, 0, 8)
	if len(red0) != 3 || red0[0] != 1 || red0[2] != 4 {
		t.Fatalf("reduce children(0) = %v", red0)
	}
	if kids := BcastChildren(5, 0, 8); len(kids) != 0 {
		t.Fatalf("leaf 5 has children %v", kids)
	}
}

func TestBcastTreeNonZeroRootAndOddSize(t *testing.T) {
	// Every non-root rank's parent must list it as a child; the tree must
	// reach all ranks exactly once.
	for _, size := range []int{1, 2, 3, 5, 7, 12, 16, 33} {
		for root := 0; root < size; root += max(1, size/3) {
			seen := map[int]int{}
			for rank := 0; rank < size; rank++ {
				for _, k := range BcastChildren(rank, root, size) {
					seen[k]++
					if BcastParent(k, root, size) != rank {
						t.Fatalf("size %d root %d: child %d of %d has parent %d",
							size, root, k, rank, BcastParent(k, root, size))
					}
				}
			}
			if len(seen) != size-1 {
				t.Fatalf("size %d root %d: tree reaches %d ranks, want %d",
					size, root, len(seen), size-1)
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("rank %d visited %d times", k, n)
				}
			}
		}
	}
}

// Property: the binomial tree is acyclic and parent depth strictly
// decreases toward the root.
func TestTreeDepthProperty(t *testing.T) {
	f := func(sz, rt uint8) bool {
		size := int(sz%64) + 1
		root := int(rt) % size
		for rank := 0; rank < size; rank++ {
			r, hops := rank, 0
			for r != root {
				r = BcastParent(r, root, size)
				if r < 0 {
					return r == -1 && rank == root
				}
				hops++
				if hops > size {
					return false // cycle
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce(Sum) over float64 equals elementwise Go addition.
func TestReduceSumProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		acc := f64bytes(a[:n]...)
		in := f64bytes(b[:n]...)
		if err := Reduce(Sum, Float64, acc, in, n); err != nil {
			return false
		}
		got := f64read(acc, n)
		for i := 0; i < n; i++ {
			want := a[i] + b[i]
			if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceParentMirrorsBcast(t *testing.T) {
	for size := 1; size <= 16; size++ {
		for rank := 0; rank < size; rank++ {
			if ReduceParent(rank, 0, size) != BcastParent(rank, 0, size) {
				t.Fatalf("reduce parent mismatch at %d/%d", rank, size)
			}
		}
	}
}

func TestOpAndDatatypeStrings(t *testing.T) {
	names := map[string]string{
		Byte.String(): "MPI_BYTE", Int32.String(): "MPI_INT",
		Int64.String(): "MPI_LONG_LONG", Float32.String(): "MPI_FLOAT",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("datatype name %q != %q", got, want)
		}
	}
	if Prod.String() != "MPI_PROD" || Max.String() != "MPI_MAX" || Min.String() != "MPI_MIN" {
		t.Fatal("op names wrong")
	}
	if Datatype(99).String() == "" {
		t.Fatal("unknown datatype must format")
	}
}

func TestReduceFloat32(t *testing.T) {
	acc := make([]byte, 8)
	in := make([]byte, 8)
	binary.LittleEndian.PutUint32(acc, math.Float32bits(1.5))
	binary.LittleEndian.PutUint32(acc[4:], math.Float32bits(-2))
	binary.LittleEndian.PutUint32(in, math.Float32bits(2.5))
	binary.LittleEndian.PutUint32(in[4:], math.Float32bits(7))
	if err := Reduce(Prod, Float32, acc, in, 2); err != nil {
		t.Fatal(err)
	}
	if math.Float32frombits(binary.LittleEndian.Uint32(acc)) != 3.75 {
		t.Fatal("float32 prod wrong")
	}
	if math.Float32frombits(binary.LittleEndian.Uint32(acc[4:])) != -14 {
		t.Fatal("float32 prod[1] wrong")
	}
}

func TestCombineIntMinProd(t *testing.T) {
	acc := make([]byte, 16)
	in := make([]byte, 16)
	binary.LittleEndian.PutUint64(acc, uint64(7))
	binary.LittleEndian.PutUint64(acc[8:], uint64(3))
	binary.LittleEndian.PutUint64(in, uint64(5))
	binary.LittleEndian.PutUint64(in[8:], uint64(4))
	Reduce(Min, Int64, acc, in, 2)
	if binary.LittleEndian.Uint64(acc) != 5 || binary.LittleEndian.Uint64(acc[8:]) != 3 {
		t.Fatal("int64 min wrong")
	}
	Reduce(Prod, Int64, acc, in, 2)
	if binary.LittleEndian.Uint64(acc) != 25 || binary.LittleEndian.Uint64(acc[8:]) != 12 {
		t.Fatal("int64 prod wrong")
	}
}
