// Package unused flags API that nothing uses: a package-level func, method
// or type that no non-test code refers to, and an exported struct field that
// no non-test code writes. DESIGN.md §9 lists what counts and what is
// exempt.
package unused

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"impacc/internal/analysis"
)

// Analyzer implements the unused pass.
var Analyzer = &analysis.Analyzer{
	Name: "unused",
	Doc:  "flag funcs, methods and types that no non-test code refers to, and exported fields that no non-test code writes",
	Run:  run,
}

const hint = "; delete it, or annotate //impacc:allow-unused <reason>"

// refs holds one Run's referred-to funcs and types and written fields, and
// its interfaces by method name.
type refs struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

func run(pass *analysis.Pass) error {
	if pass.Facts == nil || pass.Pkg.Path() == "impacc" {
		return nil
	}
	// Program holds the targets' users too (see analysis.Loader.Load), so a
	// partial run flags nothing a full run would not.
	r := pass.Facts.Memo("unused", func() any { return collect(pass.Facts.Program) }).(*refs)
	for _, f := range pass.Files {
		// Package-level funcs, methods and types only.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.File, *ast.GenDecl:
				return true
			case *ast.FuncDecl:
				fn := pass.Info.Defs[n.Name].(*types.Func)
				recv := fn.Type().(*types.Signature).Recv()
				what := "func " + fn.Name()
				if recv != nil {
					what = "method (" + types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)) + ")." + fn.Name()
				}
				if !r.used[fn] && (recv == nil || !r.implements(recv, fn.Name())) && what != "func main" && what != "func init" {
					pass.Reportf(n.Name.Pos(), "%s is never used by non-test code"+hint, what)
				}
			case *ast.TypeSpec:
				if !r.used[pass.Info.Defs[n.Name]] {
					pass.Reportf(n.Name.Pos(), "type %s is never used by non-test code"+hint, n.Name.Name)
				}
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							json := field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`)
							if name.IsExported() && !json && !r.used[pass.Info.Defs[name]] {
								pass.Reportf(name.Pos(), "field %s.%s is never written by non-test code"+hint, n.Name.Name, name.Name)
							}
						}
					}
				}
			}
			return false
		})
	}
	return nil
}

// implements reports whether the receiver's type, or a pointer to it,
// satisfies an interface with a method called name.
func (r *refs) implements(recv *types.Var, name string) bool {
	for _, it := range r.ifaces[name] {
		if named := analysis.NamedOf(recv.Type()); types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// collect builds the reference set over pkgs, and indexes the interfaces
// they use and those declared in them and everything they import.
func collect(pkgs []*analysis.Package) *refs {
	r := &refs{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	seen := map[*types.Package]bool{}
	r.addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				r.used[obj.Origin()] = true
			case *types.TypeName:
				r.used[obj] = true
			}
		}
		for _, sel := range pkg.Info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				r.used[fn.Origin()] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			r.addIface(tv.Type)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				r.writes(pkg.Info, n)
				return true
			})
		}
		r.addScope(pkg.Types, seen)
	}
	return r
}

// addScope indexes the named interfaces of p and of everything p imports.
func (r *refs) addScope(p *types.Package, seen map[*types.Package]bool) {
	if seen[p] {
		return
	}
	seen[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
				r.addIface(tn.Type())
			}
		}
	}
	for _, imp := range p.Imports() {
		r.addScope(imp, seen)
	}
}

func (r *refs) addIface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
		}
	}
}

// writes records the fields n writes: by assignment, ++/--, a
// composite-literal key or position, or taking an address, explicitly or by
// calling a pointer-receiver method on an addressable field.
func (r *refs) writes(info *types.Info, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			r.chain(info, lhs)
		}
	case *ast.IncDecStmt:
		r.chain(info, n.X)
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			r.chain(info, n.Key)
			r.chain(info, n.Value)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			r.chain(info, n.X)
		}
	case *ast.CompositeLit:
		if st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct); ok {
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					r.chain(info, kv.Key)
				} else {
					r.used[st.Field(i).Origin()] = true
				}
			}
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
			_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if ptrRecv && deref(sel.Recv()) == sel.Recv() {
				r.chain(info, n.X)
			}
		}
	}
}

// chain records every field selected along the addressable path e, so
// c.Stats.HtoHCount++ writes both Stats and HtoHCount.
func (r *refs) chain(info *types.Info, e ast.Expr) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		r.chain(info, x.X)
	case *ast.StarExpr:
		r.chain(info, x.X)
	case *ast.IndexExpr:
		r.chain(info, x.X)
	case *ast.SelectorExpr:
		r.chain(info, x.Sel)
		r.chain(info, x.X)
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.IsField() {
			r.used[v.Origin()] = true
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
