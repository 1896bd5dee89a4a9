package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// layers is the module's package graph as DESIGN.md §1 draws it, one
// row per layer from the bottom up. Entries are module-relative
// directories, matched with path.Match. A package may import only
// packages of lower rows. Two rows record edges that run against the
// paper's order and stay because bench/ names both ends: prof imports
// histogram (histogram.Log2), and workload imports query for the
// aggregate query type (workload.MixedGen).
var layers = [][]string{
	{"internal/dense", "internal/histogram", "internal/lint"},
	{"internal/metrics", "internal/prof"},
	{"internal/trace"},
	{"internal/netsim"},
	{"internal/routing", "internal/trickle", "internal/index", "internal/query", "internal/dynamics"},
	{"internal/workload"},
	{"internal/core"},
	{"internal/policy"},
	{"internal/exp"},
	{"internal/sweep", "internal/perfbench", "."},
	{"cmd/*", "bench"},
}

// TestImportLayers holds every package of the module (the directories
// lint.Load expands ./... to: testdata, hidden and underscore
// directories skipped) to the layers table: each sits in exactly one
// row, and its non-test files import module packages of lower rows
// only. Imports are read with go/parser alone, so a planted cycle is
// reported as the upward edge it is rather than as a load error.
func TestImportLayers(t *testing.T) {
	const modPath = "scoop"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]map[string]bool{} // package dir -> module dirs it imports
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(p))
		dir = filepath.ToSlash(dir)
		if imports[dir] == nil {
			imports[dir] = map[string]bool{}
		}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if ip == modPath {
				imports[dir]["."] = true
			} else if rest, ok := strings.CutPrefix(ip, modPath+"/"); ok {
				imports[dir][rest] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(imports) < 20 {
		t.Fatalf("found %d packages under %s; the walk is broken", len(imports), root)
	}
	dirs := make([]string, 0, len(imports))
	for dir := range imports {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs) // report in a stable order
	row := map[string]int{}
	for _, dir := range dirs {
		row[dir] = -1
		for r, entries := range layers {
			for _, pat := range entries {
				if ok, _ := path.Match(pat, dir); !ok {
					continue
				}
				if row[dir] >= 0 {
					t.Errorf("%s: listed in rows %d and %d", dir, row[dir], r)
				}
				row[dir] = r
			}
		}
		if row[dir] < 0 {
			t.Errorf("%s: no row of the layers table lists it", dir)
		}
	}
	for _, dir := range dirs {
		for dep := range imports[dir] {
			if r, ok := row[dep]; ok && row[dir] >= 0 && r >= row[dir] {
				t.Errorf("%s (row %d) imports %s (row %d): a package imports only lower rows", dir, row[dir], dep, r)
			}
		}
	}
}
