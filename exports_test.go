package drtree_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowList names exported funcs and methods that no product file
// calls but that stay on purpose, each with its reason.
var exportAllowList = map[string]string{
	// Tools that tests use to check other code.
	"psort.IsGloballySorted":     "checks psort's output order in its tests",
	"cgm.Barrier":                "the payload-free superstep the machine and transport tests drive",
	"wire.Registered":            "lets the codec tests confirm a raw codec is registered",
	"cgm.Machine.ArenaBytes":     "reads arena growth in the arena and alloc-budget tests",
	"cgm.Metrics.LocalWork":      "the BSP local-work term the measured-mode tests check",
	"balance.Plan.MaxServed":     "the per-host load bound the balance tests assert",
	"balance.Plan.CopiesPerHost": "the copy spread the balance tests assert",
	"geom.RankPoints":            "builds rank-space fixtures with chosen coordinates",
	"obs/cluster.ReadEvents":     "reads an event archive back in the health-plane tests",

	// Operations the paper names.
	"comm.SegmentedBroadcast":   "the paper's segmented broadcast, one of §1's standard operations",
	"comm.SegmentedGather":      "the paper's segmented gather, one of §1's standard operations",
	"comm.Scan":                 "the paper's partial sum, one of §1's standard operations",
	"rangetree.Tree.Selections": "the paper's selection count for a sequential query",
}

// exportDecl is one top-level declaration and the names it refers to.
type exportDecl struct {
	key    string // pkg.Name or pkg.Type.Method
	name   string // the name callers refer to
	pkg    string // directory under internal/ or the module root; drtree for the root
	method bool
	facade bool // a declaration in drtree.go
	check  bool // a candidate that must have a caller
	// facadeRoot marks a declaration whose drtree.Name references count
	// as facade callers: example programs, commands, Example functions.
	facadeRoot bool
	idents     map[string]bool // plain identifiers
	selectors  map[string]bool // x.Name where x is not an imported package
	qualified  map[string]bool // pkg.Name of an imported package of the module
}

// TestEveryExportHasACaller fails on an exported name nothing calls. In
// drtree.go a caller is an example program, a command, an Example
// function, or a kept facade declaration. In internal/ a caller of an
// exported func or method is any non-test .go file of the module or of
// bench/. Matching is by name (package-qualified for package funcs), so
// it over-approximates liveness: it can miss a dead name, never flag a
// live one. A name called only from dead code is dead too.
func TestEveryExportHasACaller(t *testing.T) {
	decls := parseModuleDecls(t)

	alive := make([]bool, len(decls))
	for i, d := range decls {
		_, allowed := exportAllowList[d.key]
		alive[i] = !d.check || allowed
	}
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if alive[i] {
				continue
			}
			for j, c := range decls {
				if alive[j] && j != i && refersTo(c, d) {
					alive[i], changed = true, true
					break
				}
			}
		}
	}

	var dead []string
	for i, d := range decls {
		if !alive[i] {
			dead = append(dead, d.key)
		}
	}
	for key := range exportAllowList {
		if !hasDecl(decls, key) {
			t.Errorf("allow-list entry %s names no declaration", key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported names have no caller; delete them or give them one:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

func hasDecl(decls []exportDecl, key string) bool {
	for _, d := range decls {
		if d.key == key {
			return true
		}
	}
	return false
}

// refersTo reports whether caller c names candidate d.
func refersTo(c, d exportDecl) bool {
	switch {
	case d.facade:
		return (c.facade && c.idents[d.name]) || (c.facadeRoot && c.qualified[d.key])
	case d.method:
		return c.selectors[d.name]
	case c.pkg == d.pkg:
		return c.idents[d.name]
	default:
		return c.qualified[d.key]
	}
}

// parseModuleDecls parses every .go file under the module root (bench/
// included): non-test files as callers and candidates, and the root
// example_test.go (its Example functions and the init that registers
// for them) as facade callers.
func parseModuleDecls(t *testing.T) []exportDecl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []exportDecl
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		test := strings.HasSuffix(path, "_test.go")
		if test && path != "example_test.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := strings.TrimPrefix(dir, "internal/")
		if dir == "." {
			pkg = "drtree"
		}
		internal := strings.HasPrefix(dir, "internal/")
		facade := path == "drtree.go"
		facadeRoot := strings.HasPrefix(dir, "examples/") || strings.HasPrefix(dir, "cmd/")
		imports := moduleImports(f)
		for _, decl := range f.Decls {
			d := exportDecl{pkg: pkg, facade: facade, facadeRoot: facadeRoot}
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.name = decl.Name.Name
				d.key = pkg + "." + d.name
				if decl.Recv != nil {
					d.method = true
					d.key = pkg + "." + recvType(decl.Recv.List[0].Type) + "." + d.name
				}
				if test {
					d.facadeRoot = true
				}
				d.check = (internal || facade) && ast.IsExported(d.name)
				collectRefs(&d, decl, imports)
				decls = append(decls, d)
			case *ast.GenDecl:
				if test {
					continue
				}
				if !facade {
					collectRefs(&d, decl, imports)
					decls = append(decls, d)
					continue
				}
				// Each facade spec is its own candidate.
				for _, spec := range decl.Specs {
					for _, name := range specNames(spec) {
						s := exportDecl{pkg: pkg, facade: true, name: name, key: pkg + "." + name}
						s.check = ast.IsExported(name)
						collectRefs(&s, spec, imports)
						decls = append(decls, s)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

func specNames(spec ast.Spec) []string {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []string{s.Name.Name}
	case *ast.ValueSpec:
		var names []string
		for _, n := range s.Names {
			names = append(names, n.Name)
		}
		return names
	}
	return nil
}

func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// collectRefs records the names under n. imports maps a file's import
// names of module packages to their keys' package part.
func collectRefs(d *exportDecl, n ast.Node, imports map[string]string) {
	d.idents, d.selectors, d.qualified = map[string]bool{}, map[string]bool{}, map[string]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				d.qualified[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
			d.selectors[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			d.idents[n.Name] = true
		}
		return true
	}
	ast.Inspect(n, visit)
}

// moduleImports maps f's import names of module packages to the package
// part of their keys: the facade is "drtree", internal/x is "x".
func moduleImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		var pkg string
		switch {
		case path == "repro":
			pkg = "drtree"
		case strings.HasPrefix(path, "repro/internal/"):
			pkg = strings.TrimPrefix(path, "repro/internal/")
		default:
			continue
		}
		name := pkg[strings.LastIndex(pkg, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = pkg
	}
	return m
}
