package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

func loadFacts(t *testing.T, dir string) (*Package, *Facts) {
	t.Helper()
	l := NewLoader()
	pkg, err := l.LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrs) > 0 {
		t.Fatalf("type errors in %s: %v", dir, pkg.TypeErrs)
	}
	return pkg, buildFacts([]*Package{pkg}, newAllowIndex())
}

func summaryNamed(t *testing.T, facts *Facts, name string) *FuncSummary {
	t.Helper()
	for _, s := range facts.Sorted() {
		if s.Func.Name() == name {
			return s
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

// TestFactsGenerics checks the loader and fact store on type-parameterized
// code: constraints type-check cleanly, and calls through both explicit and
// inferred instantiations (functions and methods) fold back onto the
// declared functions' summaries.
func TestFactsGenerics(t *testing.T) {
	_, facts := loadFacts(t, "generics")

	use := summaryNamed(t, facts, "Use")
	calls := map[string]int{}
	for _, c := range use.Calls {
		calls[c.Callee.Name()]++
		if facts.Summary(c.Callee) == nil {
			t.Errorf("call to %s does not resolve to a summarized function (instantiation not folded to origin?)", c.Callee.Name())
		}
	}
	if calls["Sum"] != 2 {
		t.Errorf("Use calls Sum %d times in facts, want 2 (explicit + inferred instantiation)", calls["Sum"])
	}
	if calls["Set"] != 1 {
		t.Errorf("Use calls Set %d times in facts, want 1", calls["Set"])
	}

	set := summaryNamed(t, facts, "Set")
	if len(set.FieldWrites) != 2 {
		t.Fatalf("Set has %d field writes, want 2", len(set.FieldWrites))
	}
	for _, fw := range set.FieldWrites {
		if fw.Owner == nil || fw.Owner.Obj().Name() != "Pair" {
			t.Errorf("Set field write owner = %v, want Pair", fw.Owner)
		}
	}
}

// TestFactsEmbeddedInterfaces checks Implementations against interface
// embedding (Sink's method set includes Closer's) and struct embedding
// (logSink implements Sink through promoted fileSink methods).
func TestFactsEmbeddedInterfaces(t *testing.T) {
	_, facts := loadFacts(t, "embed")

	impls := facts.Implementations("Sink")
	byName := map[string]*types.Func{}
	for fn := range impls {
		byName[fn.Name()] = fn
	}
	for _, want := range []string{"Emit", "Close"} {
		fn, ok := byName[want]
		if !ok {
			t.Fatalf("Implementations(Sink) misses %s; got %v", want, byName)
		}
		sig := fn.Type().(*types.Signature)
		if recv := NamedOf(sig.Recv().Type()); recv == nil || recv.Obj().Name() != "fileSink" {
			t.Errorf("%s implementation receiver = %v, want fileSink (promoted method resolves to embedded origin)", want, sig.Recv().Type())
		}
		if facts.Summary(fn) == nil {
			t.Errorf("implementation %s has no summary", want)
		}
	}
}

// TestReachPropagation checks the fixed point directly: a source two calls
// deep taints the whole chain with the origin carried unchanged.
func TestReachPropagation(t *testing.T) {
	_, facts := loadFacts(t, "embed")

	emit := summaryNamed(t, facts, "Emit").Func
	taint := facts.Reach("test", func(s *FuncSummary) (Origin, bool) {
		if s.Func == emit {
			return Origin{What: "seed"}, true
		}
		return Origin{}, false
	})
	useFn := summaryNamed(t, facts, "use").Func
	o, ok := taint[useFn]
	if !ok {
		t.Fatal("use() calls Emit (promoted through struct embedding) but is not tainted")
	}
	if o.What != "seed" {
		t.Errorf("origin not propagated unchanged: %+v", o)
	}
}
