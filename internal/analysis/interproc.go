package analysis

// Interprocedural fact store: one summary per declared function across every
// analyzed package, linked into a call graph, so passes can see through
// helper functions instead of matching single expressions. The summaries are
// deliberately syntactic-plus-types (no SSA): each records what the function
// does directly — which functions it calls, which struct fields it reads and
// writes, which package-level variables it uses, which fields it hands to
// sync/atomic — and Reach closes those direct facts transitively over the
// call graph. Function literals are attributed to their enclosing declared
// function, which is conservative in exactly the direction the determinism
// passes want: constructing a closure over a forbidden site taints the
// constructor.
//
// All analyzed packages share one go/token.FileSet and one importer (see
// load.go), so *types.Func objects are identical across packages and the
// store is genuinely whole-program for any `impacc/...` run.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
)

// ShortPos renders a position as base-filename:line — compact origin
// references inside diagnostic messages, stable across checkouts.
func ShortPos(pos token.Position) string {
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}

// Origin names the concrete site that makes a transitive fact true: its
// resolved position and a human-readable description ("time.Now", "write
// to sim.Engine.Metrics").
type Origin struct {
	Pos  token.Position
	What string
}

// CallSite is one statically resolved call. Recv is the object named by the
// receiver expression when the call is a method call on a plain identifier
// (e.g. the `e` of e.At(...)); Args holds, per argument, the object named by
// the argument when it is a plain identifier. Both are nil otherwise and
// exist so passes can follow values through parameters.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
	Recv   types.Object
	Args   []types.Object
}

// FieldWrite is one assignment (or ++/--) through a field selector. Owner is
// the named type of the selector base (pointers dereferenced), nil when the
// base is an anonymous struct.
type FieldWrite struct {
	Owner *types.Named
	Field *types.Var
	Pos   token.Pos
}

// FieldUse is any selector expression resolving to a struct field.
type FieldUse struct {
	Field *types.Var
}

// VarUse is a use of a package-level variable (any package, including
// dependencies — e.g. crypto/rand.Reader).
type VarUse struct {
	Var *types.Var
	Pos token.Pos
}

// AtomicUse records one field whose address was passed to a function-style
// sync/atomic operation (atomic.AddInt64(&s.f, ...)). Typed atomics
// (atomic.Int64 and friends) are not recorded: their every access is atomic
// by construction.
type AtomicUse struct {
	Op  string
	Pos token.Position
}

// FuncBind records a function value bound to a struct field, either by
// assignment (x.OnBeat = f) or in a composite literal (Progress{Emit: f}).
// Exactly one of Fn (a resolved function or method value) and Lit (an inline
// literal) is non-nil; binds whose right-hand side is neither (e.g. a
// constructor call returning a closure) are not recorded.
type FuncBind struct {
	Owner string // "pkgpath.TypeName" of the field's owner, "" if unknown
	Field string
	Fn    *types.Func
	Lit   *ast.FuncLit
	Pkg   *Package
}

// FuncSummary is the per-function fact record.
type FuncSummary struct {
	Func *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	Calls       []CallSite
	FieldWrites []FieldWrite
	FieldUses   []FieldUse
	VarUses     []VarUse
}

// Facts is the program-wide fact store built once per Run invocation.
type Facts struct {
	// Funcs maps every declared function and method with a body in the
	// analyzed packages to its summary.
	Funcs map[*types.Func]*FuncSummary
	// Atomics maps struct fields to their function-style sync/atomic access
	// sites anywhere in the program.
	Atomics map[*types.Var][]AtomicUse
	// Binds lists every function value bound to a struct field (callback
	// wiring sites such as OnBeat/OnWindow/Emit assignments).
	Binds []FuncBind
	// Program lists every package with full type information: the targets
	// and their users (see Loader.Users).
	Program []*Package

	allows *allowIndex
	memo   map[string]any
	sorted []*FuncSummary
}

// Allowed reports whether an //impacc:allow-<name> annotation (with a
// reason) covers pos, marking it used. Passes consult this before treating a
// site as a taint source, so an annotated origin sanctions its transitive
// callers too.
func (f *Facts) Allowed(name string, pos token.Position) bool {
	if f.allows == nil {
		return false
	}
	return f.allows.covers(name, pos)
}

// Memo returns build's result for key, building it once per Run so the
// passes of every package share one program-wide result.
func (f *Facts) Memo(key string, build func() any) any {
	v, ok := f.memo[key]
	if !ok {
		v = build()
		f.memo[key] = v
	}
	return v
}

// Summary returns fn's summary, or nil for functions without analyzed
// bodies (dependencies, interface methods).
func (f *Facts) Summary(fn *types.Func) *FuncSummary {
	return f.Funcs[fn]
}

// Sorted returns every summary in stable (file, line) order.
func (f *Facts) Sorted() []*FuncSummary {
	return f.sorted
}

// Reach computes which functions can transitively reach a source site, with
// the origin propagated unchanged so diagnostics can name the underlying
// site. source examines one summary's direct facts. Results are memoized
// under key (one closure per analyzer), so N packages' passes share one
// fixed point.
func (f *Facts) Reach(key string, source func(*FuncSummary) (Origin, bool)) map[*types.Func]Origin {
	return f.Memo("reach:"+key, func() any { return f.reach(source) }).(map[*types.Func]Origin)
}

func (f *Facts) reach(source func(*FuncSummary) (Origin, bool)) map[*types.Func]Origin {
	r := map[*types.Func]Origin{}
	for _, s := range f.sorted {
		if o, ok := source(s); ok {
			r[s.Func] = o
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range f.sorted {
			if _, done := r[s.Func]; done {
				continue
			}
			for _, c := range s.Calls {
				if o, ok := r[c.Callee]; ok {
					r[s.Func] = o
					changed = true
					break
				}
			}
		}
	}
	return r
}

// Implementations returns the concrete methods of every analyzed named type
// that implements an interface called ifaceName (matched by name across all
// analyzed packages), keyed by method with the implementing type's position
// as value. Used to find e.g. every SpanSink implementation in the program.
func (f *Facts) Implementations(ifaceName string) map[*types.Func]token.Position {
	return f.Memo("impls:"+ifaceName, func() any { return f.implementations(ifaceName) }).(map[*types.Func]token.Position)
}

func (f *Facts) implementations(ifaceName string) map[*types.Func]token.Position {
	out := map[*types.Func]token.Position{}
	var ifaces []*types.Interface
	var pkgs []*Package
	seen := map[*Package]bool{}
	for _, s := range f.sorted {
		if !seen[s.Pkg] {
			seen[s.Pkg] = true
			pkgs = append(pkgs, s.Pkg)
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		if obj, ok := pkg.Types.Scope().Lookup(ifaceName).(*types.TypeName); ok {
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				if !types.Implements(named, it) && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg.Types, it.Method(i).Name())
					if m, ok := obj.(*types.Func); ok {
						out[m] = pkg.Fset.Position(tn.Pos())
					}
				}
			}
		}
	}
	return out
}

// buildFacts walks every target package once and assembles the store.
func buildFacts(pkgs []*Package, allows *allowIndex) *Facts {
	f := &Facts{
		Funcs:   map[*types.Func]*FuncSummary{},
		Atomics: map[*types.Var][]AtomicUse{},
		allows:  allows,
		memo:    map[string]any{},
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				s := &FuncSummary{Func: obj, Pkg: pkg, Decl: fd}
				f.Funcs[obj] = s
				f.walkBody(pkg, s, fd.Body)
			}
			f.collectBinds(pkg, file)
		}
	}
	f.sorted = make([]*FuncSummary, 0, len(f.Funcs))
	for _, s := range f.Funcs {
		f.sorted = append(f.sorted, s) //impacc:allow-maporder slice is fully sorted by (file, line) immediately below
	}
	sort.Slice(f.sorted, func(i, j int) bool {
		a := f.sorted[i].Pkg.Fset.Position(f.sorted[i].Func.Pos())
		b := f.sorted[j].Pkg.Fset.Position(f.sorted[j].Func.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return f
}

// walkBody records one function body's direct facts.
func (f *Facts) walkBody(pkg *Package, s *FuncSummary, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := Callee(pkg.Info, n)
			if callee == nil {
				return true
			}
			cs := CallSite{Callee: callee, Pos: n.Pos()}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					cs.Recv = pkg.Info.Uses[id]
				}
			}
			cs.Args = make([]types.Object, len(n.Args))
			for i, a := range n.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok {
					cs.Args[i] = pkg.Info.Uses[id]
				}
			}
			s.Calls = append(s.Calls, cs)
			f.noteAtomic(pkg, callee, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				f.noteFieldWrite(pkg, s, lhs)
			}
		case *ast.IncDecStmt:
			f.noteFieldWrite(pkg, s, n.X)
		case *ast.SelectorExpr:
			if obj, ok := pkg.Info.Uses[n.Sel].(*types.Var); ok {
				switch {
				case obj.IsField():
					s.FieldUses = append(s.FieldUses, FieldUse{Field: obj})
				case obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope():
					s.VarUses = append(s.VarUses, VarUse{Var: obj, Pos: n.Sel.Pos()})
				}
			}
		}
		return true
	})
}

// noteFieldWrite records lhs when it is a field selector.
func (f *Facts) noteFieldWrite(pkg *Package, s *FuncSummary, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return
	}
	s.FieldWrites = append(s.FieldWrites, FieldWrite{
		Owner: NamedOf(pkg.Info.TypeOf(sel.X)),
		Field: obj,
		Pos:   sel.Sel.Pos(),
	})
}

// noteAtomic records fields whose address flows into a function-style
// sync/atomic call.
func (f *Facts) noteAtomic(pkg *Package, callee *types.Func, call *ast.CallExpr) {
	if callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
		return
	}
	if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods of the typed atomics: inherently consistent
	}
	for _, arg := range call.Args {
		u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if obj, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && obj.IsField() {
			f.Atomics[obj] = append(f.Atomics[obj], AtomicUse{
				Op:  callee.Name(),
				Pos: pkg.Fset.Position(u.Pos()),
			})
		}
	}
}

// collectBinds records function values bound to struct fields anywhere in
// the file, including inside bodies and package-level declarations.
func (f *Facts) collectBinds(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !obj.IsField() || !isFuncType(obj.Type()) {
					continue
				}
				f.bind(pkg, typeFullName(NamedOf(pkg.Info.TypeOf(sel.X))), sel.Sel.Name, n.Rhs[i])
			}
		case *ast.CompositeLit:
			named := NamedOf(pkg.Info.TypeOf(n))
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Uses[key].(*types.Var)
				if !ok || !obj.IsField() || !isFuncType(obj.Type()) {
					continue
				}
				f.bind(pkg, typeFullName(named), key.Name, kv.Value)
			}
		}
		return true
	})
}

func (f *Facts) bind(pkg *Package, owner, field string, rhs ast.Expr) {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.FuncLit:
		f.Binds = append(f.Binds, FuncBind{Owner: owner, Field: field, Lit: rhs, Pkg: pkg})
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[rhs].(*types.Func); ok {
			f.Binds = append(f.Binds, FuncBind{Owner: owner, Field: field, Fn: fn, Pkg: pkg})
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[rhs.Sel].(*types.Func); ok {
			f.Binds = append(f.Binds, FuncBind{Owner: owner, Field: field, Fn: fn, Pkg: pkg})
		}
	}
}

func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// Callee statically resolves a call expression to the called function or
// method, handling plain calls, method calls, and generic instantiations.
// Conversions and calls of function-typed values return nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Origin folds generic instantiations back onto the declared
			// function, so call-graph edges land on the summaries (which are
			// keyed by Defs objects).
			return fn.Origin()
		}
	}
	return nil
}

// NamedOf unwraps t to its named type, dereferencing one level of pointer
// and resolving aliases; nil when t has no name.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// typeFullName renders "pkgpath.TypeName" for matching by suffix.
func typeFullName(named *types.Named) string {
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
