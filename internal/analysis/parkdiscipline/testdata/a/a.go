package a

import (
	"sync"

	"impacc/internal/sim"
)

func work() {}

// proc takes a *sim.Proc, so it runs as a sim process: raw blocking
// constructs stall the whole engine and are forbidden.
func proc(p *sim.Proc, ch chan int, mu *sync.Mutex, rw *sync.RWMutex, wg *sync.WaitGroup) {
	<-ch        // want `raw channel receive`
	ch <- 1     // want `raw channel send`
	mu.Lock()   // want `sync\.Mutex\.Lock`
	mu.Unlock() // unlocking never blocks: ok
	rw.RLock()  // want `sync\.RWMutex\.RLock`
	wg.Wait()   // want `sync\.WaitGroup\.Wait`
	go work()   // want `raw goroutine spawn`
	select {}   // want `select over raw channels`
	p.Sleep(10) // engine-mediated blocking: ok
	p.Yield()   // ok
}

// rangeChan: draining a channel blocks just like a receive.
func rangeChan(p *sim.Proc, ch chan int) {
	for v := range ch { // want `range over a raw channel`
		_ = v
	}
}

// spawned function literals are process bodies even without being declared
// anywhere near the engine.
func spawnSite(e *sim.Engine, ch chan int) {
	e.Spawn("worker", func(p *sim.Proc) {
		<-ch // want `raw channel receive`
		p.Sleep(5)
	})
	e.SpawnAt(10, "late", func(p *sim.Proc) {
		ch <- 2 // want `raw channel send`
	})
	e.SpawnStepAt(0, "step", func(p *sim.Proc) {
		<-ch // want `raw channel receive`
	})
}

// primitives shows the sanctioned engine-mediated blocking.
func primitives(p *sim.Proc, ev *sim.Event, i *sim.Idle, s *sim.Semaphore) {
	ev.Wait(p)   // sim.Event.Wait parks via the engine: ok
	i.Wait(p)    // ok
	s.Acquire(p) // ok
}

// hostSide has no *sim.Proc and is not spawned: ordinary Go concurrency is
// none of this analyzer's business.
func hostSide(ch chan int, wg *sync.WaitGroup) int {
	wg.Wait()
	return <-ch
}

// embedded: blocking methods promoted from embedded sync types are still
// sync methods.
type guarded struct {
	sync.Mutex
}

func embedded(p *sim.Proc, g *guarded) {
	g.Lock() // want `sync\.Mutex\.Lock`
	g.Unlock()
}

// annotated is the reasoned escape hatch.
func annotated(p *sim.Proc, mu *sync.Mutex) {
	//impacc:allow-parkdiscipline read-side lock held only within one event, no park point inside
	mu.Lock()
	mu.Unlock()
}
