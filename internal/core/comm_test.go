package core

import (
	"bytes"
	"testing"

	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

func TestCommSplitRowsAndCols(t *testing.T) {
	// 8 PSG tasks as a 2x4 grid: split into row and column communicators
	// and reduce within each.
	mustRun(t, psgCfg(IMPACC, 8), func(tk *Task) {
		w := tk.World()
		if w.Rank() != tk.Rank() || w.Size() != 8 || w.ID() != 0 {
			t.Errorf("world view wrong: %d/%d id %d", w.Rank(), w.Size(), w.ID())
		}
		row := w.Split(tk.Rank()/4, tk.Rank())
		col := w.Split(tk.Rank()%4, tk.Rank())
		if row.Size() != 4 || col.Size() != 2 {
			t.Fatalf("rank %d: row size %d, col size %d", tk.Rank(), row.Size(), col.Size())
		}
		if row.Rank() != tk.Rank()%4 || col.Rank() != tk.Rank()/4 {
			t.Fatalf("rank %d: row rank %d, col rank %d", tk.Rank(), row.Rank(), col.Rank())
		}
		if row.WorldRank(row.Rank()) != tk.Rank() {
			t.Fatal("world rank translation broken")
		}
		// Row-wise sum of world ranks.
		in, out := tk.Malloc(8), tk.Malloc(8)
		tk.Floats(in, 1)[0] = float64(tk.Rank())
		row.Allreduce(in, out, 1, mpi.Float64, mpi.Sum)
		want := 0.0
		for r := 0; r < 4; r++ {
			want += float64(tk.Rank()/4*4 + r)
		}
		if got := tk.Floats(out, 1)[0]; got != want {
			t.Errorf("rank %d row sum = %v, want %v", tk.Rank(), got, want)
		}
		// Column-wise max.
		col.Allreduce(in, out, 1, mpi.Float64, mpi.Max)
		if got := tk.Floats(out, 1)[0]; got != float64(tk.Rank()%4+4) {
			t.Errorf("rank %d col max = %v", tk.Rank(), got)
		}
	})
}

func TestCommIsolationSameTag(t *testing.T) {
	// Two disjoint communicators exchanging with identical (src, dst, tag)
	// comm-rank patterns: messages must never cross contexts.
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		g := tk.World().Split(tk.Rank()%2, tk.Rank()) // evens, odds
		buf := tk.Malloc(8)
		if g.Rank() == 0 {
			tk.Floats(buf, 1)[0] = float64(100 + tk.Rank())
			g.Send(buf, 1, mpi.Float64, 1, 5)
		} else {
			g.Recv(buf, 1, mpi.Float64, 0, 5)
			want := float64(100 + tk.Rank() - 2) // my group's rank 0
			if got := tk.Floats(buf, 1)[0]; got != want {
				t.Errorf("rank %d got %v, want %v (context leak)", tk.Rank(), got, want)
			}
		}
	})
}

func TestCommWildcardScoped(t *testing.T) {
	// A wildcard receive on a sub-communicator must not swallow a world
	// message with the same destination.
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		g := tk.World().Split(tk.Rank()%2, tk.Rank())
		buf := tk.Malloc(8)
		wbuf := tk.Malloc(8)
		switch tk.Rank() {
		case 0:
			// World-context message to rank 2 (same node, dst of group
			// recv). Non-blocking sends: intra-node blocking sends are
			// synchronous (they complete at the fused copy), and the
			// receiver intentionally posts the receives out of order.
			tk.Floats(wbuf, 1)[0] = 7
			sw := tk.Isend(wbuf, 1, mpi.Float64, 2, 9)
			tk.Floats(buf, 1)[0] = 11
			sg := g.Isend(buf, 1, mpi.Float64, 1, 9) // group even: rank 1 = world 2
			tk.Wait(sw, sg)
		case 2:
			g.Recv(buf, 1, mpi.Float64, AnySource, AnyTag)
			if got := tk.Floats(buf, 1)[0]; got != 11 {
				t.Errorf("group wildcard got %v, want 11", got)
			}
			tk.Recv(wbuf, 1, mpi.Float64, 0, 9)
			if got := tk.Floats(wbuf, 1)[0]; got != 7 {
				t.Errorf("world recv got %v, want 7", got)
			}
		}
	})
}

func TestCommDupIsolated(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		d := tk.World().Dup()
		if d.ID() == 0 || d.Size() != 2 || d.Rank() != tk.Rank() {
			t.Fatalf("dup = id %d size %d rank %d", d.ID(), d.Size(), d.Rank())
		}
		buf := tk.Malloc(8)
		if tk.Rank() == 0 {
			buf2 := tk.Malloc(8)
			tk.Floats(buf, 1)[0] = 1
			s1 := d.Isend(buf, 1, mpi.Float64, 1, 0)
			tk.Floats(buf2, 1)[0] = 2
			s2 := tk.Isend(buf2, 1, mpi.Float64, 1, 0)
			tk.Wait(s1, s2)
		} else {
			// World recv posted first must still get the world message.
			tk.Recv(buf, 1, mpi.Float64, 0, 0)
			if tk.Floats(buf, 1)[0] != 2 {
				t.Error("world recv matched dup-context message")
			}
			d.Recv(buf, 1, mpi.Float64, 0, 0)
			if tk.Floats(buf, 1)[0] != 1 {
				t.Error("dup recv wrong payload")
			}
		}
	})
}

func TestCommSplitUndefinedColor(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		color := tk.Rank() % 2
		if tk.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		g := tk.World().Split(color, 0)
		if tk.Rank() == 3 {
			if g != nil {
				t.Error("undefined color must return nil comm")
			}
			return
		}
		if g == nil {
			t.Fatal("nil comm for defined color")
		}
		wantSize := 2
		if tk.Rank()%2 == 1 {
			wantSize = 1 // rank 3 dropped out of the odd group
		}
		if g.Size() != wantSize {
			t.Errorf("rank %d group size = %d, want %d", tk.Rank(), g.Size(), wantSize)
		}
	})
}

func TestCommSplitKeyOrdering(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		// Reverse keys: comm ranks must be the reverse of world ranks.
		g := tk.World().Split(0, -tk.Rank())
		if g.Rank() != 3-tk.Rank() {
			t.Errorf("world %d got comm rank %d, want %d", tk.Rank(), g.Rank(), 3-tk.Rank())
		}
	})
}

func TestCommCollectivesAcrossNodes(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true, Seed: 4}
	mustRun(t, cfg, func(tk *Task) {
		// Split by node: each group spans one node; then bcast within.
		g := tk.World().Split(tk.NodeIdx(), tk.Rank())
		if g.Size() != 4 {
			t.Fatalf("per-node group size = %d", g.Size())
		}
		buf := tk.Malloc(80)
		if g.Rank() == 0 {
			tk.Floats(buf, 10)[5] = float64(tk.NodeIdx() + 1)
		}
		g.Bcast(buf, 10, mpi.Float64, 0)
		if got := tk.Floats(buf, 10)[5]; got != float64(tk.NodeIdx()+1) {
			t.Errorf("rank %d node-bcast got %v", tk.Rank(), got)
		}
		// Cross-node group of leaders.
		leaderColor := 0
		if g.Rank() != 0 {
			leaderColor = -1
		}
		lead := tk.World().Split(leaderColor, tk.Rank())
		if g.Rank() == 0 {
			if lead.Size() != 2 {
				t.Fatalf("leader group size = %d", lead.Size())
			}
			in, out := tk.Malloc(8), tk.Malloc(8)
			tk.Floats(in, 1)[0] = float64(tk.NodeIdx())
			lead.Allreduce(in, out, 1, mpi.Float64, mpi.Sum)
			if tk.Floats(out, 1)[0] != 1 {
				t.Error("leader allreduce wrong")
			}
		}
	})
}

func TestCommSendrecvAndBarrier(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		g := tk.World().Split(0, tk.Rank()) // same group, exercise comm paths
		mine, theirs := tk.Malloc(8), tk.Malloc(8)
		tk.Floats(mine, 1)[0] = float64(g.Rank())
		peer := (g.Rank() + 1) % g.Size()
		from := (g.Rank() - 1 + g.Size()) % g.Size()
		g.Sendrecv(mine, 1, mpi.Float64, peer, 1, theirs, 1, mpi.Float64, from, 1)
		if got := tk.Floats(theirs, 1)[0]; got != float64(from) {
			t.Errorf("comm sendrecv got %v, want %d", got, from)
		}
		g.Barrier()
	})
}

func TestReduceScatter(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		n := tk.Size()
		in := tk.Malloc(int64(8 * 2 * n))
		out := tk.Malloc(16)
		v := tk.Floats(in, 2*n)
		for i := range v {
			v[i] = float64(tk.Rank() + i)
		}
		tk.ReduceScatter(in, out, 2, mpi.Float64, mpi.Sum)
		// Sum over ranks r of (r + i) = 6 + 4i; my block starts at
		// i = 2*rank.
		got := tk.Floats(out, 2)
		for j := 0; j < 2; j++ {
			i := 2*tk.Rank() + j
			want := float64(6 + 4*i)
			if got[j] != want {
				t.Errorf("rank %d block[%d] = %v, want %v", tk.Rank(), j, got[j], want)
			}
		}
	})
}

func TestScan(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 8), func(tk *Task) {
		in := tk.Malloc(8)
		out := tk.Malloc(8)
		tk.Floats(in, 1)[0] = float64(tk.Rank() + 1)
		tk.Scan(in, out, 1, mpi.Float64, mpi.Sum)
		want := 0.0
		for r := 0; r <= tk.Rank(); r++ {
			want += float64(r + 1)
		}
		if got := tk.Floats(out, 1)[0]; got != want {
			t.Errorf("rank %d scan = %v, want %v", tk.Rank(), got, want)
		}
		// Max variant.
		tk.Floats(in, 1)[0] = float64((tk.Rank() * 3) % 7)
		tk.Scan(in, out, 1, mpi.Float64, mpi.Max)
		wantMax := 0.0
		for r := 0; r <= tk.Rank(); r++ {
			if m := float64((r * 3) % 7); m > wantMax {
				wantMax = m
			}
		}
		if got := tk.Floats(out, 1)[0]; got != wantMax {
			t.Errorf("rank %d scan-max = %v, want %v", tk.Rank(), got, wantMax)
		}
	})
}

func TestProbeAndIprobe(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(256)
		if tk.Rank() == 0 {
			ok, _ := tk.Iprobe(1, 3, mpi.Float64)
			if ok {
				t.Error("Iprobe matched before any send")
			}
			tk.Floats(buf, 32)[0] = 5
			tk.Send(buf, 32, mpi.Float64, 1, 3)
		} else {
			// Blocking probe learns the incoming size before receiving —
			// the dynamic-receive pattern MPI_Probe exists for.
			n := tk.Probe(0, 3, mpi.Float64)
			if n != 32 {
				t.Errorf("probed count = %d, want 32", n)
			}
			ok, n2 := tk.Iprobe(0, 3, mpi.Float64)
			if !ok || n2 != 32 {
				t.Errorf("Iprobe after Probe = %v, %d", ok, n2)
			}
			tk.Recv(buf, n, mpi.Float64, 0, 3)
			if tk.Floats(buf, 32)[0] != 5 {
				t.Error("payload lost after probe")
			}
			// Message consumed: probe must now miss.
			if ok, _ := tk.Iprobe(0, 3, mpi.Float64); ok {
				t.Error("Iprobe matched consumed message")
			}
		}
	})
}

func TestProbeInternode(t *testing.T) {
	cfg := Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}
	mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(512)
		if tk.Rank() == 0 {
			tk.Send(buf, 64, mpi.Float64, 1, 9)
		} else {
			n := tk.Probe(0, 9, mpi.Float64)
			if n != 64 {
				t.Errorf("internode probed count = %d", n)
			}
			tk.Recv(buf, n, mpi.Float64, 0, 9)
		}
	})
}

func TestRecvStatusWildcard(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 3), func(tk *Task) {
		buf := tk.Malloc(256)
		switch tk.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := tk.RecvStatus(buf, 32, mpi.Float64, AnySource, AnyTag)
				seen[st.Source] = true
				if st.Tag != st.Source*10 {
					t.Errorf("status tag = %d for source %d", st.Tag, st.Source)
				}
				if st.Count != st.Source*4 {
					t.Errorf("status count = %d for source %d", st.Count, st.Source)
				}
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen = %v", seen)
			}
		default:
			tk.Send(buf, tk.Rank()*4, mpi.Float64, 0, tk.Rank()*10)
		}
	})
}

func TestWaitany(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 3), func(tk *Task) {
		buf1 := tk.Malloc(64)
		buf2 := tk.Malloc(64)
		switch tk.Rank() {
		case 0:
			r1 := tk.Irecv(buf1, 8, mpi.Float64, 1, 1)
			r2 := tk.Irecv(buf2, 8, mpi.Float64, 2, 2)
			first := tk.Waitany(nil, r1, r2)
			// Rank 2 sends immediately; rank 1 sends late.
			if first != 2 {
				t.Errorf("first completed = %d, want 2 (the early sender)", first)
			}
			second := tk.Waitany(r1)
			if second != 0 {
				t.Errorf("second waitany = %d", second)
			}
		case 1:
			tk.Busy(5 * sim.Millisecond)
			tk.Send(buf1, 8, mpi.Float64, 0, 1)
		case 2:
			tk.Send(buf2, 8, mpi.Float64, 0, 2)
		}
	})
	// Empty request list.
	mustRun(t, psgCfg(IMPACC, 1), func(tk *Task) {
		if tk.Waitany() != -1 {
			t.Error("empty Waitany must return -1")
		}
	})
}

func TestGathervScatterv(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		n := tk.Size()
		// Rank r contributes r+1 elements.
		counts := make([]int, n)
		displs := make([]int, n)
		total := 0
		for r := 0; r < n; r++ {
			counts[r] = r + 1
			displs[r] = total
			total += r + 1
		}
		mine := tk.Malloc(int64(8 * (tk.Rank() + 1)))
		v := tk.Floats(mine, tk.Rank()+1)
		for i := range v {
			v[i] = float64(tk.Rank()*100 + i)
		}
		all := tk.Malloc(int64(8 * total))
		tk.Gatherv(mine, tk.Rank()+1, mpi.Float64, all, counts, displs, 0)
		if tk.Rank() == 0 {
			g := tk.Floats(all, total)
			for r := 0; r < n; r++ {
				for i := 0; i < counts[r]; i++ {
					if g[displs[r]+i] != float64(r*100+i) {
						t.Errorf("gatherv slot r=%d i=%d = %v", r, i, g[displs[r]+i])
					}
				}
			}
			// Rewrite for the scatter back.
			for i := range g {
				g[i] = -g[i]
			}
		}
		back := tk.Malloc(int64(8 * (tk.Rank() + 1)))
		tk.Scatterv(all, counts, displs, mpi.Float64, back, tk.Rank()+1, 0)
		b := tk.Floats(back, tk.Rank()+1)
		for i := range b {
			if b[i] != -float64(tk.Rank()*100+i) {
				t.Errorf("scatterv rank %d elem %d = %v", tk.Rank(), i, b[i])
			}
		}
	})
}

func TestGathervBadCounts(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(64)
		tk.Gatherv(buf, 1, mpi.Float64, buf, []int{1}, []int{0}, 0)
	})
	if err == nil {
		t.Fatal("short counts must fail at the root")
	}
}

// TestCommSplitUnbackedParallel: Split reads its group from the bytes of the
// allgather it prices, which the runtime backs even on unbacked runs. Groups
// come out right across nodes in both modes, and every artifact of the run is
// byte-identical across worker counts.
func TestCommSplitUnbackedParallel(t *testing.T) {
	systems := []struct {
		name string
		sys  func() *topo.System
	}{
		{"beacon2", func() *topo.System { return topo.Beacon(2) }},
		{"titan4", func() *topo.System { return topo.Titan(4) }},
	}
	for _, s := range systems {
		for _, mode := range []Mode{IMPACC, Legacy} {
			t.Run(s.name+"/"+mode.String(), func(t *testing.T) {
				cfg := Config{System: s.sys(), Mode: mode, Seed: 2016, JitterPct: 1}
				base := artifacts(t, cfg, splitProgram(t))
				for _, workers := range []int{2, 8} {
					cfg.Parallel = workers
					got := artifacts(t, cfg, splitProgram(t))
					for art, want := range base {
						if !bytes.Equal(got[art], want) {
							t.Errorf("par-sim %d: %s differs from serial (%d vs %d bytes)",
								workers, art, len(got[art]), len(want))
						}
					}
				}
			})
		}
	}
}

// splitProgram splits the world into evens and odds with reversed keys, the
// last rank opting out (MPI_UNDEFINED), and checks each member's group size
// and rank. It then splits the group again (a non-world parent) and runs a
// barrier on the result.
func splitProgram(t *testing.T) Program {
	return func(tk *Task) {
		n, me := tk.Size(), tk.Rank()
		color := me % 2
		if me == n-1 {
			color = -1
		}
		g := tk.World().Split(color, -me)
		if color < 0 {
			if g != nil {
				t.Errorf("rank %d: undefined color returned a communicator", me)
			}
			return
		}
		size, rank := 0, 0
		for r := 0; r < n-1; r++ {
			if r%2 == color {
				size++
				if r > me {
					rank++
				}
			}
		}
		if g == nil || g.Size() != size || g.Rank() != rank || g.WorldRank(rank) != me {
			t.Errorf("rank %d: got group %+v, want size %d rank %d", me, g, size, rank)
			return
		}
		h := g.Split(0, g.Rank())
		if h.Size() != size || h.Rank() != rank || h.ID() == g.ID() {
			t.Errorf("rank %d: resplit size %d rank %d id %d, want size %d rank %d, id != %d",
				me, h.Size(), h.Rank(), h.ID(), size, rank, g.ID())
		}
		h.Barrier()
	}
}
