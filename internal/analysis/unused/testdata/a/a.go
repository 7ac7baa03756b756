package a

import (
	"fmt"
	"sync"
)

func init() { Use() }

func Dead() {} // want `func Dead is never used by non-test code`

func dead() {} // want `func dead is never used by non-test code`

//impacc:allow-unused kept API: the annotation covers the next line
func Kept() {}

type Stats struct {
	HtoHCount int
	Read      int // want `field Stats.Read is never written by non-test code`
	Tagged    int `json:"tagged"`
}

type Context struct {
	Stats Stats // written through c.Stats.HtoHCount++
	Mu    sync.Mutex
	Addr  int
	Pos   int
	Keyed int
	Elem  []int
}

type T[V any] struct {
	Val V
}

// String satisfies fmt.Stringer, declared in an import: never flagged.
func (c *Context) String() string { return fmt.Sprint(c.Stats.Read, c.Stats.Tagged) }

func (c *Context) Lonely() {} // want `method \(\*Context\)\.Lonely is never used by non-test code`

func (c *Context) valued() {}

func (t *T[V]) Get() V { return t.Val } // generic methods resolve to their origin

func Use() {
	c := &Context{}
	c.Stats.HtoHCount++
	c.Mu.Lock() // a pointer-receiver call takes &c.Mu
	p := &c.Addr
	_ = p
	c.Elem[0] = 1
	_ = Context{Keyed: 1}
	_ = struct{ Pos int }{1}
	_ = []Context{{Pos: 2}}
	f := c.valued // a method value is a reference
	f()
	t := T[int]{3}
	_ = t.Get()
}
