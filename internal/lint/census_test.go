package lint_test

import (
	"bufio"
	"fmt"
	"go/types"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"scoop/internal/lint"
)

// module is the whole module, bench/ included, type-checked once per
// test binary: the export gate and TestLoadRecursive share it.
var module struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = lint.Load("../..", "./...") })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

// TestExportCensus is the export gate (DESIGN.md §15): every exported
// name of the module that no non-test code uses, bench/ counted as a
// caller, must be listed in testdata/exports.txt with its reason class,
// and every entry there must still name such an export.
func TestExportCensus(t *testing.T) {
	for _, p := range census(loadModule(t), readAllowlist(t, "testdata/exports.txt")) {
		t.Error(p)
	}
}

// TestExportCensusFixture holds the gate's own rules to a fixture
// package and allowlist, each case named in the fixture's comments.
func TestExportCensusFixture(t *testing.T) {
	pkgs, err := lint.Load("testdata/src/census", ".")
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "scoop/internal/lint/testdata/src/census."
	got := census(pkgs, readAllowlist(t, "testdata/src/census/exports.txt"))
	want := []string{
		"exports.txt:4: " + pkg + "Classless: entry has no reason class (facade, reference or probe)",
		"exports.txt:5: " + pkg + "Guessed: unknown reason class \"guess\" (facade, reference or probe)",
		"exports.txt:6: " + pkg + "Gone: listed, but no such exported name",
		"exports.txt:7: " + pkg + "Called: listed, but product code uses it",
		pkg + "TestOnly: exported, no product caller, not in exports.txt",
		pkg + "Uncalled: exported, no product caller, not in exports.txt",
	}
	if !slices.Equal(got, want) {
		t.Errorf("census of the fixture:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// reasonClasses are why an export with no product caller may stay:
// the scoop package's public API, an oracle a test checks the product
// against, or state a test in another package cannot observe otherwise.
var reasonClasses = []string{"facade", "reference", "probe"}

// allowEntry is one allowlist line: "<import path>.<Name> <class>
// [note]", where Name is a package-level name or Type.Method.
type allowEntry struct {
	line        int
	name, class string
}

// readAllowlist parses an allowlist, skipping blank and # lines.
func readAllowlist(t *testing.T, path string) []allowEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []allowEntry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		e := allowEntry{line: n, name: fields[0]}
		if len(fields) > 1 {
			e.class = fields[1]
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// census checks pkgs against the allowlist and returns its problems,
// allowlist lines first, then unlisted names, each group in order.
func census(pkgs []*lint.Package, allow []allowEntry) []string {
	uses := exportUses(pkgs)
	var probs []string
	listed := map[string]bool{}
	for _, e := range allow {
		listed[e.name] = true
		at := fmt.Sprintf("exports.txt:%d: %s: ", e.line, e.name)
		used, exists := uses[e.name]
		switch {
		case e.class == "":
			probs = append(probs, at+"entry has no reason class (facade, reference or probe)")
		case !slices.Contains(reasonClasses, e.class):
			probs = append(probs, at+fmt.Sprintf("unknown reason class %q (facade, reference or probe)", e.class))
		case !exists:
			probs = append(probs, at+"listed, but no such exported name")
		case used:
			probs = append(probs, at+"listed, but product code uses it")
		}
	}
	var unlisted []string
	for name, used := range uses {
		if !used && !listed[name] {
			unlisted = append(unlisted, name+": exported, no product caller, not in exports.txt")
		}
	}
	slices.Sort(unlisted)
	return append(probs, unlisted...)
}

// exportUses maps every exported function, type, variable, constant
// and method of exported types in pkgs ("path.Name", "path.Type.Method")
// to whether non-test code of pkgs uses it. Tests are not callers:
// Load reads no test file. A method counts as used when its type
// implements an interface that has it, since a call through the
// interface never names the method. Struct fields are not counted:
// some are read by reflection (encoding/json). Commands are skipped.
func exportUses(pkgs []*lint.Package) map[string]bool {
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

	out := map[string]bool{}
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
			out[p.Path+"."+name] = used[obj]
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out[p.Path+"."+name+"."+m.Name()] = used[m] || viaInterface(named, m)
				}
			}
		}
	}
	return out
}
