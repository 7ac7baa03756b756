package core

import (
	"runtime"
	"slices"
	"testing"

	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// refLeaders is the map-based leader election the cached node layout
// replaced, kept as the reference: the lowest comm rank of every node in
// first-seen order, with root promoted on its own node.
func refLeaders(c *Comm, root int) (list []int, myLeader int) {
	t := c.t
	rootNode := t.rt.placements[c.ranks[root]].Node
	seen := map[int]int{}
	var order []int
	for crank, wrank := range c.ranks {
		node := t.rt.placements[wrank].Node
		if _, ok := seen[node]; !ok {
			seen[node] = crank
			order = append(order, node)
		}
	}
	seen[rootNode] = root
	for _, node := range order {
		list = append(list, seen[node])
	}
	return list, seen[t.pl.Node]
}

// refFanout is the reference phase-2 target list: every other member on
// the caller's node, in comm rank order, as world ranks.
func refFanout(c *Comm) []int {
	var out []int
	for crank, wrank := range c.ranks {
		if crank != c.myRank && c.t.sameNode(wrank) {
			out = append(out, wrank)
		}
	}
	return out
}

// checkLayout asserts, for every root, that the cached layout elects the
// same leaders, the same leader for this task, the same tree positions and
// the same phase-2 targets in the same order as the reference. It reports
// whether the layout's node slots run out of node index order.
func checkLayout(t *testing.T, what string, c *Comm) (reordered bool) {
	t.Helper()
	first := slices.Clone(c.layout.first)
	for root := 0; root < c.Size(); root++ {
		want, wantMy := refLeaders(c, root)
		got, gotMy := c.leaders(root)
		if !slices.Equal(got, want) || gotMy != wantMy {
			t.Errorf("%s rank %d root %d: leaders %v/%d, want %v/%d", what, c.myRank, root, got, gotMy, want, wantMy)
			continue
		}
		if c.myRank != gotMy {
			continue
		}
		if idx := slices.Index(want, c.myRank); c.layout.slot[c.myRank] != idx {
			t.Errorf("%s rank %d root %d: slot %d, want tree index %d", what, c.myRank, root, c.layout.slot[c.myRank], idx)
		}
		if rootIdx := slices.Index(want, root); c.layout.slot[root] != rootIdx {
			t.Errorf("%s root %d: slot %d, want tree index %d", what, root, c.layout.slot[root], rootIdx)
		}
		var fan []int
		for _, crank := range c.layout.group[c.layout.slot[c.myRank]] {
			if crank != c.myRank {
				fan = append(fan, c.ranks[crank])
			}
		}
		if wantFan := refFanout(c); !slices.Equal(fan, wantFan) {
			t.Errorf("%s rank %d root %d: fanout %v, want %v", what, c.myRank, root, fan, wantFan)
		}
	}
	if !slices.Equal(c.layout.first, first) {
		t.Errorf("%s: leaders mutated the shared layout: %v, was %v", what, c.layout.first, first)
	}
	for s := 1; s < len(first); s++ {
		prev := c.t.rt.placements[c.ranks[first[s-1]]].Node
		if c.t.rt.placements[c.ranks[first[s]]].Node < prev {
			reordered = true
		}
	}
	return reordered
}

// checkBcast broadcasts from every root of c and checks that each member
// ends with the root's data: the layout's slots must also be used right.
func checkBcast(t *testing.T, what string, tk *Task, c *Comm) {
	t.Helper()
	buf := tk.Malloc(4 * 8)
	for root := 0; root < c.Size(); root++ {
		v := tk.Floats(buf, 4)
		for i := range v {
			v[i] = float64(tk.Rank()*10 + i)
		}
		c.Bcast(buf, 4, mpi.Float64, root)
		for i, x := range tk.Floats(buf, 4) {
			if want := float64(c.WorldRank(root)*10 + i); x != want {
				t.Errorf("%s rank %d root %d: element %d = %v, want %v", what, c.Rank(), root, i, x, want)
				break
			}
		}
	}
}

// TestNodeLayoutMatchesReference checks the cached layout against the
// map-based reference on systems with 1, 2, 4 and 8 devices per node (and
// an uneven mix), on the world communicator, on Split communicators whose
// shuffled keys put nodes in first-seen order different from node index
// order, and on their Dups. Every communicator then broadcasts from every
// root.
func TestNodeLayoutMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"titan:5", Config{System: topo.Titan(5)}},
		{"hetero-cpu", Config{System: topo.HeteroDemo(), DeviceTypes: topo.MaskOf(topo.CPUAccel)}},
		{"hetero", Config{System: topo.HeteroDemo()}},
		{"beacon:3", Config{System: topo.Beacon(3)}},
		{"psg", Config{System: topo.PSG()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Mode, cfg.Backed = IMPACC, true
			var reordered bool
			mustRun(t, cfg, func(tk *Task) {
				n := tk.Size()
				// The same shuffle on every task: a Fisher-Yates permutation
				// used as Split keys.
				perm := make([]int, n)
				for i := range perm {
					perm[i] = i
				}
				rng := sim.NewRNG(7)
				for i := n - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					perm[i], perm[j] = perm[j], perm[i]
				}
				me := tk.Rank()
				checkLayout(t, "world", tk.World())
				all := tk.World().Split(0, perm[me])
				r1 := checkLayout(t, "shuffled", all)
				half := tk.World().Split(me%2, perm[n-1-me])
				r2 := checkLayout(t, "half", half)
				dup := half.Dup()
				checkLayout(t, "dup", dup)
				checkBcast(t, "world", tk, tk.World())
				checkBcast(t, "shuffled", tk, all)
				checkBcast(t, "dup", tk, dup)
				if me == 0 {
					reordered = r1 || r2
				}
			})
			multiNode := len(BuildMapping(cfg.System, cfg.DeviceTypes, 0)) > len(cfg.System.Nodes[0].Devices)
			if multiNode && !reordered {
				t.Errorf("no Split put nodes out of index order; the case tests nothing new")
			}
		})
	}
}

// TestLocalIndexMatchesScan checks the layout-derived Task.local against a
// scan of the placements, including masks that skip devices and nodes.
func TestLocalIndexMatchesScan(t *testing.T) {
	for _, cfg := range []Config{
		{System: topo.HeteroDemo()},
		{System: topo.HeteroDemo(), DeviceTypes: topo.MaskOf(topo.XeonPhi, topo.CPUAccel)},
		{System: topo.Beacon(3)},
		{System: topo.Titan(4)},
	} {
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range rt.tasks {
			want := 0
			for _, other := range rt.placements[:tk.rank] {
				if other.Node == tk.pl.Node {
					want++
				}
			}
			if tk.LocalIndex() != want {
				t.Errorf("%s rank %d: LocalIndex %d, want %d", cfg.System.Name, tk.rank, tk.LocalIndex(), want)
			}
		}
	}
}

// allreduceBytesPerRankCall measures the heap bytes one Allreduce costs
// each rank on titan:nodes: the difference between runs of k and 2k calls
// cancels set-up and teardown. k is chosen so that k*nodes rank-calls are
// at least rankCalls, so the per-call bytes outweigh the run-to-run noise
// of set-up (goroutine stacks, pooled buffers) on a small system too.
func allreduceBytesPerRankCall(t *testing.T, nodes, rankCalls int) float64 {
	k := max(1, (rankCalls+nodes-1)/nodes)
	run := func(calls int) int64 {
		cfg := Config{System: topo.Titan(nodes), Mode: IMPACC, Backed: true}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mustRun(t, cfg, func(tk *Task) {
			in, out := tk.Malloc(8), tk.Malloc(8)
			for i := 0; i < calls; i++ {
				tk.Allreduce(in, out, 1, mpi.Float64, mpi.Sum)
			}
		})
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	// The first run also pays one-time costs (fresh goroutines for the
	// processes, first-use runtime tables) that later runs reuse, so it
	// is discarded rather than taken as the base.
	run(k)
	base := run(k)
	return float64(run(2*k)-base) / float64(k*nodes)
}

// TestAllreduceAllocScaling pins the per-rank heap cost of a collective as
// independent of the communicator size: a rank's share of one Allreduce
// must not grow with P (it grew linearly when every call rebuilt the node
// leader map).
func TestAllreduceAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, which moves allocation totals")
	}
	const rankCalls = 4096
	small := allreduceBytesPerRankCall(t, 32, rankCalls)
	large := allreduceBytesPerRankCall(t, 512, rankCalls)
	t.Logf("bytes per rank per Allreduce: titan:32 %.0f, titan:512 %.0f", small, large)
	if large > 1.5*small {
		t.Errorf("titan:512 costs %.0f B per rank per Allreduce, more than 1.5x titan:32's %.0f B", large, small)
	}
}
