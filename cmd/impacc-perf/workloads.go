package main

import (
	"math"
	"math/rand/v2"

	"impacc/internal/acc"
	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/mpi"
)

// workload is one seeded simulation the benchmark runs under both modes.
type workload struct {
	name string
	// system is the topo.Preset selector; ranks caps the task count.
	system   string
	ranks    int
	parallel int
	lean     bool
	// program builds the simulated program for one mode. Any input the
	// program replays is generated here from the seed, before timing starts.
	program func(seed uint64, mode core.Mode) core.Program
}

// workloads are the benchmark's four workloads at their measured sizes;
// README.md says why each is here. Tests build tiny variants with the same
// constructors.
var workloads = []workload{
	// Process switches and intra-node matching; no barrier or collective.
	p2pWorkload("p2p-psg", 5000),
	// Device streams, the unified queue and internode RDMA; no collectives.
	jacobiWorkload("jacobi-titan128", "titan:128", 128, 24576, 100, 1, false),
	// Collectives, GC and peak memory across 512 shards.
	luleshWorkload("lulesh-titan512", "titan:512", 512, 45, 5),
	// The generated topology: largest set-up, most shards, two workers.
	jacobiWorkload("gemini1024-par2", "gemini:16,8,8", 1024, 1024, 20, 2, true),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// styleFor mirrors the paper's pairing: IMPACC on the unified activity
// queue, the MPI+OpenACC baseline with non-blocking MPI and explicit waits.
func styleFor(mode core.Mode) apps.Style {
	if mode == core.IMPACC {
		return apps.StyleUnified
	}
	return apps.StyleAsync
}

func jacobiWorkload(name, system string, ranks, n, iters, parallel int, lean bool) workload {
	return workload{
		name: name, system: system, ranks: ranks, parallel: parallel, lean: lean,
		program: func(_ uint64, mode core.Mode) core.Program {
			return apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: styleFor(mode)})
		},
	}
}

func luleshWorkload(name, system string, ranks, edge, steps int) workload {
	return workload{
		name: name, system: system, ranks: ranks, parallel: 1,
		program: func(uint64, core.Mode) core.Program {
			return apps.LULESH(apps.LULESHConfig{Edge: edge, Steps: steps})
		},
	}
}

// p2pRanks is the PSG node's GPU count: one task per GPU.
const p2pRanks = 8

// p2pMinBytes and p2pMaxBytes bound the log-uniform message sizes.
const (
	p2pMinBytes = 8
	p2pMaxBytes = 256 << 10
)

// p2pRound is one round of the exchange schedule: ranks are paired at
// random and every pair swaps one message each way.
type p2pRound struct {
	peer   [p2pRanks]int
	bytes  [p2pRanks]int  // size of the message rank r sends
	srcDev [p2pRanks]bool // rank r sends from its device copy
	dstDev [p2pRanks]bool // rank r receives into its device copy
}

// p2pSchedule draws rounds of random pairings with log-uniform sizes and
// host or device endpoints.
func p2pSchedule(seed uint64, rounds int) []p2pRound {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	lo, hi := math.Log(p2pMinBytes), math.Log(p2pMaxBytes)
	out := make([]p2pRound, rounds)
	for i := range out {
		rd := &out[i]
		perm := rng.Perm(p2pRanks)
		for k := 0; k < p2pRanks; k += 2 {
			a, b := perm[k], perm[k+1]
			rd.peer[a], rd.peer[b] = b, a
		}
		for r := range rd.bytes {
			rd.bytes[r] = int(math.Exp(lo + (hi-lo)*rng.Float64()))
			rd.srcDev[r] = rng.IntN(2) == 1
			rd.dstDev[r] = rng.IntN(2) == 1
		}
	}
	return out
}

// p2pWorkload replays a seeded Isend/Irecv/Wait schedule between the eight
// GPUs of one PSG node. Device endpoints go straight to the unified routines
// under IMPACC and are staged explicitly through host buffers under legacy,
// as the Fig. 9 point-to-point program does.
func p2pWorkload(name string, rounds int) workload {
	return workload{
		name: name, system: "psg", ranks: p2pRanks, parallel: 1,
		program: func(seed uint64, mode core.Mode) core.Program {
			sched := p2pSchedule(seed, rounds)
			legacy := mode == core.Legacy
			return func(t *core.Task) {
				me := t.Rank()
				sbuf, rbuf := t.Malloc(p2pMaxBytes), t.Malloc(p2pMaxBytes)
				t.DataEnter(sbuf, p2pMaxBytes, acc.Create)
				t.DataEnter(rbuf, p2pMaxBytes, acc.Create)
				for i := range sched {
					rd := &sched[i]
					peer := rd.peer[me]
					out, in := rd.bytes[me], rd.bytes[peer]
					var sopt, ropt []core.Opt
					if legacy {
						if rd.srcDev[me] {
							t.UpdateHost(sbuf, int64(out), -1)
						}
					} else {
						if rd.srcDev[me] {
							sopt = []core.Opt{core.OnDevice()}
						}
						if rd.dstDev[me] {
							ropt = []core.Opt{core.OnDevice()}
						}
					}
					rq := t.Irecv(rbuf, in, mpi.Byte, peer, 0, ropt...)
					sq := t.Isend(sbuf, out, mpi.Byte, peer, 0, sopt...)
					t.Wait(rq, sq)
					if legacy && rd.dstDev[me] {
						t.UpdateDevice(rbuf, int64(in), -1)
					}
				}
				t.DataExit(sbuf, acc.Delete)
				t.DataExit(rbuf, acc.Delete)
			}
		},
	}
}
