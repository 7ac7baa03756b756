package main

import (
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// calibSink keeps the calibration kernel's result observable so the
// compiler cannot drop the work.
var calibSink uint64

// calibrate returns freed memory to the OS, so that one rep's garbage is
// neither charged to the next nor counted in its peak memory, then times
// one run of a fixed pure-Go kernel that leans on the same host resources
// as the simulator: map inserts and lookups, small heap allocations,
// sorting, and goroutine handoffs over unbuffered channels. The kernel's
// inputs never change, so its time tracks only how fast the host runs at
// that moment. It returns milliseconds and records a span under parent.
func calibrate(rec *spanRecorder, rep string, parent int) float64 {
	debug.FreeOSMemory()
	start := time.Now()
	calibSink = calibKernel()
	end := time.Now()
	rec.record("calibrate", rep, "", parent, start, end)
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

type calibNode struct {
	next *calibNode
	v    uint64
}

// calibWorkers copies of the kernel body run at once, one per core of the
// reference host, so the kernel feels contention on every core that the
// simulator's workers and garbage collector use. calibRounds sizes one
// calibration to about 40 ms there.
const (
	calibWorkers  = 2
	calibRounds   = 3
	calibHandoffs = 4_000
)

func calibKernel() uint64 {
	sums := make([]uint64, calibWorkers)
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calibRounds; i++ {
				sums[w] += calibRound()
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for _, s := range sums {
		sum += s
	}
	return pingPong(sum, calibHandoffs)
}

// calibRound fills a map, sorts a slice and builds a linked list.
func calibRound() uint64 {
	const n = 60_000
	x := uint64(0x2545f4914f6cdd1d)
	m := make(map[uint64]uint64)
	keys := make([]int, n)
	var list *calibNode
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%(n/2)] += x
		keys[i] = int(x >> 1)
		list = &calibNode{next: list, v: x}
	}
	var sum uint64
	for i := range keys {
		sum += m[uint64(keys[i])%(n/2)]
	}
	sort.Ints(keys)
	for p := list; p != nil; p = p.next {
		sum += p.v
	}
	return sum + uint64(keys[n/2])
}

// pingPong hands a value back and forth between two goroutines n times,
// the way simulated processes park and resume.
func pingPong(v uint64, n int) uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < n; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	wg.Wait()
	return v
}
