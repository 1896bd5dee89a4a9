package lint

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var census = flag.Bool("census", false, "TestExportCensus: list the exported names no product code uses")

// TestExportCensus lists every exported function, method, type,
// variable and constant of the module that no non-test code uses,
// bench/ included, as the simplicity rule counts callers: tests are
// not callers. A method counts as used when its type implements an
// interface that has it, since a call through the interface never
// names the method. Struct fields are not counted: some are read by
// reflection (encoding/json). Each name is marked with whether any
// test file spells it. It only reports, so it runs on request:
//
//	go test ./internal/lint -run ExportCensus -census -v
func TestExportCensus(t *testing.T) {
	if !*census {
		t.Skip("run with -census")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	addIfaces := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	addIfaces(types.Universe)
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if !seen[tp] {
			seen[tp] = true
			addIfaces(tp.Scope())
			for _, imp := range tp.Imports() {
				visit(imp)
			}
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		visit(p.Types)
	}
	viaInterface := func(named types.Type, m *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	inTests := testIdents(t, root)
	var out []string
	report := func(p *Package, name, ident string) {
		where := "no reference"
		if inTests[ident] {
			where = "tests"
		}
		out = append(out, p.Path+": "+name+" ("+where+")")
	}
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				report(p, name, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !viaInterface(named, m) {
					report(p, name+"."+m.Name(), m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	for _, line := range out {
		t.Log(line)
	}
	t.Logf("%d exported names without a product caller", len(out))
}

// testIdents returns every identifier the module's test files spell.
func testIdents(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
