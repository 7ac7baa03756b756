package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestEventOrderAcrossInlineBoundary checks wake and callback order for one
// (inline only), two (one overflow) and three waiters and callbacks: every
// callback runs, in registration order, before any waiter resumes, and the
// waiters resume in arrival order.
func TestEventOrderAcrossInlineBoundary(t *testing.T) {
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e := NewEngine()
			ev := e.NewEvent("go")
			var order []string
			for i := 0; i < n; i++ {
				e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
					ev.Wait(p)
					order = append(order, p.Name)
				})
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("cb%d", i)
				ev.OnFire(Func(func() { order = append(order, name) }))
			}
			e.Spawn("firer", func(p *Proc) {
				p.Sleep(Microsecond)
				ev.Fire()
			})
			if err := soloGroup(e).Run(); err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 0; i < n; i++ {
				want = append(want, fmt.Sprintf("cb%d", i))
			}
			for i := 0; i < n; i++ {
				want = append(want, fmt.Sprintf("w%d", i))
			}
			if !reflect.DeepEqual(order, want) {
				t.Fatalf("order = %v, want %v", order, want)
			}
		})
	}
}

// TestEventOnFireDuringFire registers callbacks from inside a running
// callback: the event has already fired, so each runs at once, nested in
// the callback that registered it, ahead of the callbacks still queued.
func TestEventOnFireDuringFire(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent("nested")
	var order []string
	ev.OnFire(Func(func() {
		order = append(order, "first")
		ev.OnFire(Func(func() { order = append(order, "nested") }))
	}))
	ev.OnFire(Func(func() { order = append(order, "second") }))
	ev.OnFire(Func(func() { order = append(order, "third") }))
	ev.Fire()
	want := []string{"first", "nested", "second", "third"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	ev.Fire() // firing again runs nothing twice
	if len(order) != len(want) {
		t.Fatalf("second Fire ran callbacks again: %v", order)
	}
}

// TestInitEventEmbedded uses an event embedded in its owner: InitEvent
// makes it an unfired event with its own label, FireAt fires it at a set
// time without a closure, and re-initializing a fired event rearms it.
func TestInitEventEmbedded(t *testing.T) {
	type owner struct {
		id   int
		done Event
	}
	e := NewEngine()
	o := &owner{id: 7}
	e.InitEvent(&o.done, "owned")
	if o.done.Fired() {
		t.Fatal("initialized event starts fired")
	}
	var woke []Time
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			o.done.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.FireAt(Time(5*Microsecond), &o.done)
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != Time(5*Microsecond) || woke[1] != woke[0] {
		t.Fatalf("waiters resumed at %v, want both at 5us", woke)
	}

	e.InitEvent(&o.done, "rearmed")
	if o.done.Fired() {
		t.Fatal("InitEvent did not rearm a fired event")
	}
	e.Spawn("stuck", func(p *Proc) { o.done.Wait(p) })
	err := soloGroup(e).Run()
	de, ok := err.(*DeadlockError)
	if !ok || len(de.Blocked) != 1 || !strings.HasSuffix(de.Blocked[0], "(on event:rearmed)") {
		t.Fatalf("Run = %v, want one process blocked on event:rearmed", err)
	}
}

// TestEventSize keeps Event within 64 bytes: message commands and stream
// operations embed one each, hundreds of thousands per run.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 64 {
		t.Fatalf("sizeof(Event) = %d bytes, want <= 64", got)
	}
}
