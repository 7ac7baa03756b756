package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string
	Standard   bool
	// DepOnly marks packages pulled in only as dependencies of the
	// requested patterns; analyzers do not run on them and their function
	// bodies are not type-checked.
	DepOnly bool
	// User marks a package type-checked only for its references (see
	// Loader.Load); analyzers do not run on it.
	User bool

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrs collects type-checker complaints. For dependency packages
	// (bodies skipped, cgo stripped) some are expected and harmless; for
	// target packages a clean tree produces none.
	TypeErrs []error
}

// Loader discovers packages with `go list -json -deps` and type-checks them
// bottom-up with go/types, caching results so repeated Load calls (and
// testdata loads sharing stdlib imports) are cheap. It exists because this
// environment has no golang.org/x/tools/go/packages; the subset implemented
// here — syntax plus full type information for target packages — is all the
// analyzers need.
type Loader struct {
	Fset  *token.FileSet
	pkgs  map[string]*Package
	users []*Package
}

// NewLoader returns an empty loader with a fresh FileSet.
func NewLoader() *Loader {
	return &Loader{Fset: token.NewFileSet(), pkgs: map[string]*Package{}}
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string   `json:"ImportPath"`
	Dir        string   `json:"Dir"`
	GoFiles    []string `json:"GoFiles"`
	Standard   bool     `json:"Standard"`
	DepOnly    bool     `json:"DepOnly"`
	Module     *struct {
		Path, Dir string
		Main      bool
	} `json:"Module"`
}

// Load resolves the patterns (e.g. "./...", "impacc/internal/sim") and
// returns the matched target packages, fully type-checked with Info maps.
// Dependencies are loaded transitively with function bodies skipped. Every
// other package of the targets' main module, and of the modules nested in
// it (which `go list ./...` never reaches), is type-checked as a user, so
// program-wide checks see the same references on every run (see Users).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	l.users = nil
	matched, err := goList("", append([]string{"-json=ImportPath,Module", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	isTarget := map[string]bool{}
	lists := [][]string{append([]string{""}, patterns...)} // dir, then patterns
	for _, lp := range matched {
		isTarget[lp.ImportPath] = true
		if lp.Module != nil && lp.Module.Main && len(lists) == 1 {
			lists[0] = append(lists[0], lp.Module.Path+"/...")
			nested, err := nestedModules(lp.Module.Dir)
			if err != nil {
				return nil, err
			}
			for _, dir := range nested {
				lists = append(lists, []string{dir, "./..."})
			}
		}
	}
	var targets []*Package
	for _, list := range lists {
		lps, err := goList(list[0], append([]string{"-json", "-deps", "--"}, list[1:]...)...)
		if err != nil {
			return nil, err
		}
		for i := range lps {
			pkg, err := l.ensure(&lps[i])
			if err != nil {
				return nil, err
			}
			if pkg == nil || lps[i].DepOnly {
				continue
			}
			pkg.DepOnly = false
			if isTarget[pkg.ImportPath] {
				targets = append(targets, pkg)
			} else {
				pkg.User = true
				l.users = append(l.users, pkg)
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return targets, nil
}

// Users returns the packages the last Load type-checked as users. Pass them
// to Run beside the targets.
func (l *Loader) Users() []*Package { return l.users }

// nestedModules lists the directories of the modules nested in root.
func nestedModules(root string) (dirs []string, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if err == nil && d.Name() == "go.mod" && path != filepath.Join(root, "go.mod") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return err
	})
	return dirs, err
}

// goList runs `go list -e` with args in dir ("" for the working directory)
// and decodes the packages it prints.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var lps []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			return lps, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		lps = append(lps, lp)
	}
}

// ensure parses and type-checks lp once, in dependency order (`go list
// -deps` emits dependencies before dependents, so imports are already
// cached when a package is reached).
func (l *Loader) ensure(lp *listPkg) (*Package, error) {
	if p, ok := l.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	if lp.ImportPath == "unsafe" {
		p := &Package{ImportPath: "unsafe", Standard: true, DepOnly: true, Types: types.Unsafe}
		l.pkgs["unsafe"] = p
		return p, nil
	}
	p := &Package{
		ImportPath: lp.ImportPath,
		Standard:   lp.Standard,
		DepOnly:    lp.DepOnly,
		Fset:       l.Fset,
	}
	// Register before checking so import cycles in broken trees cannot
	// recurse forever; go list already rejects true cycles.
	l.pkgs[lp.ImportPath] = p
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if lp.DepOnly || lp.Standard {
				p.TypeErrs = append(p.TypeErrs, err)
				continue
			}
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	l.check(p, lp.DepOnly || lp.Standard)
	return p, nil
}

// check type-checks p's parsed files. Dependency packages skip function
// bodies: only their exported shape matters, which keeps loading the
// stdlib closure fast and sidesteps body-level cgo and assembly quirks.
func (l *Loader) check(p *Package, depOnly bool) {
	conf := types.Config{
		Importer:         (*loaderImporter)(l),
		IgnoreFuncBodies: depOnly,
		FakeImportC:      true,
		Error: func(err error) {
			p.TypeErrs = append(p.TypeErrs, err)
		},
	}
	if !depOnly {
		p.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
	}
	// Check never returns a nil package; errors are collected via conf.Error.
	p.Types, _ = conf.Check(p.ImportPath, l.Fset, p.Files, p.Info)
}

// loaderImporter resolves imports against the loader's cache.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if p, ok := li.pkgs[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("package %q not loaded", path)
}

// LoadDir loads the .go files of one directory as a synthetic package —
// the shape analysistest needs for testdata directories, which go list
// refuses to enumerate. Imports are resolved by loading them as regular
// dependency packages first, so testdata may import both the stdlib and
// this module's own packages.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var imports []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			imports = append(imports, path)
		}
	}
	if len(imports) > 0 {
		// Load as dependencies only: bodies skipped, results cached.
		lps, err := goList("", append([]string{"-json", "-deps", "--"}, imports...)...)
		if err != nil {
			return nil, fmt.Errorf("imports of %s: %v", dir, err)
		}
		for i := range lps {
			lps[i].DepOnly = true
			if _, err := l.ensure(&lps[i]); err != nil {
				return nil, err
			}
		}
	}
	p := &Package{
		ImportPath: "testdata/" + filepath.Base(dir),
		Fset:       l.Fset,
		Files:      files,
	}
	l.check(p, false)
	return p, nil
}
