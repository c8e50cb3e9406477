// Package lint implements the repository's determinism lint: a static
// scan of the simulation code under internal/ for constructs that break
// replayable, seed-stable execution. Everything the engine runs must be
// a pure function of (program, seed, decision trace) — see
// docs/MODEL.md — so wall-clock reads, the process-global RNG, and
// iteration over Go maps (whose order is deliberately randomized by the
// runtime) are all banned on simulation paths. So is importing sync or
// sync/atomic: one engine runs one process at a time, so simulation
// state has a single accessor by construction, and a lock among it means
// a second runner has appeared — which has to argue for itself.
//
// Intentional exceptions carry a `//detlint:ok <reason>` directive on
// the offending line or the line above — for example a map iteration
// whose results are sorted before they influence anything observable.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one determinism hazard.
type Finding struct {
	Pos  token.Position
	Rule string // "time-now", "global-rand", "map-range" or "sync-import"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// globalRand lists math/rand package-level functions that draw from the
// process-global, non-seeded (or globally seeded) source. Constructing
// a private source with rand.New(rand.NewSource(seed)) is the approved
// pattern and is not flagged.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// check scans every non-test Go file in the packages under root
// (recursively) and returns the unsuppressed findings, sorted by
// position.
func check(root string) ([]Finding, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []Finding
	for _, dir := range dirs {
		fs, err := checkDir(dir)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return all, nil
}

// stubImporter satisfies type-checking imports with empty packages, so
// each package can be checked in isolation: locally declared types (the
// ones the map-range rule needs) resolve fully, cross-package types
// degrade to invalid and are skipped.
type stubImporter struct{ cache map[string]*types.Package }

func (s *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.cache[path]; ok {
		return p, nil
	}
	name := path[strings.LastIndex(path, "/")+1:]
	p := types.NewPackage(path, name)
	p.MarkComplete()
	s.cache[path] = p
	return p, nil
}

func checkDir(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	var all []Finding
	for _, pkg := range pkgs {
		var files []*ast.File
		for _, f := range pkg.Files {
			files = append(files, f)
		}
		sort.Slice(files, func(i, j int) bool {
			return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
		})

		// Tolerant type check: import and type errors are expected (the
		// stub importer returns empty packages); we only need types for
		// locally declared expressions.
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		conf := types.Config{
			Importer:                 &stubImporter{cache: make(map[string]*types.Package)},
			Error:                    func(error) {},
			DisableUnusedImportCheck: true,
		}
		conf.Check(pkg.Name, fset, files, info) //nolint:errcheck // tolerant by design

		for _, f := range files {
			all = append(all, checkFile(fset, f, info)...)
		}
	}
	return all, nil
}

func checkFile(fset *token.FileSet, f *ast.File, info *types.Info) []Finding {
	// Import alias → path, for this file.
	imports := make(map[string]string)
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}

	// Lines carrying a //detlint:ok directive suppress findings on the
	// same line or the line below.
	okLines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detlint:ok") {
				okLines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	suppressed := func(pos token.Pos) bool {
		line := fset.Position(pos).Line
		return okLines[line] || okLines[line-1]
	}

	var fs []Finding
	report := func(pos token.Pos, rule, msg string) {
		if suppressed(pos) {
			return
		}
		fs = append(fs, Finding{Pos: fset.Position(pos), Rule: rule, Msg: msg})
	}

	for _, imp := range f.Imports {
		if imp.Path.Value == `"sync"` || imp.Path.Value == `"sync/atomic"` {
			report(imp.Pos(), "sync-import",
				"the simulator has one runner and needs no locks; say who else runs with //detlint:ok <reason>")
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok || id.Obj != nil { // shadowed by a local declaration
				return true
			}
			switch imports[id.Name] {
			case "time":
				if n.Sel.Name == "Now" {
					report(n.Pos(), "time-now",
						"time.Now reads the wall clock; simulation code must use the engine's virtual clock")
				}
			case "math/rand", "math/rand/v2":
				if globalRand[n.Sel.Name] {
					report(n.Pos(), "global-rand",
						"rand."+n.Sel.Name+" draws from the process-global RNG; use rand.New(rand.NewSource(seed))")
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Pos(), "map-range",
						"map iteration order is randomized; sort the keys or annotate //detlint:ok <reason>")
				}
			}
		}
		return true
	})
	return fs
}
