package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The standard library is type-checked from source (the module must
// stay dependency-free, so there is no export-data toolchain to lean
// on). That work is identical for every Load call, so one importer —
// and the file set its positions live in — is shared process-wide.
// loadMu serializes Loads: the importer's cache is not safe for
// concurrent type-checking.
var (
	loadMu     sync.Mutex
	sharedFset = token.NewFileSet()
	sharedStd  = importer.ForCompiler(sharedFset, "source", nil)
)

// Load parses and type-checks the packages matching patterns,
// resolved relative to baseDir. Patterns are directory paths
// ("./internal/core") or recursive globs ("./..."); recursive
// expansion skips testdata, hidden and underscore directories, the
// same way the go tool does. Test files are not loaded — the
// contracts bind simulation code, and tests are free to use wall
// clocks and unsorted maps.
//
// Imports inside the module are type-checked from source through the
// same loader (cached, so each package is checked once per Load);
// everything else — the standard library — goes through the shared
// go/importer source importer. Nothing outside the module and std is
// importable: the module has zero dependencies and scooplint keeps it
// that way by construction.
func Load(baseDir string, patterns ...string) ([]*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()
	absBase, err := filepath.Abs(baseDir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(absBase)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    sharedFset,
		modDir:  modDir,
		modPath: modPath,
		std:     sharedStd,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	var dirs []string
	for _, pat := range patterns {
		expanded, err := expand(absBase, pat)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, expanded...)
	}
	sort.Strings(dirs)
	var out []*Package
	seen := map[string]bool{}
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod and returns
// the module root and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// expand resolves one pattern to a list of package directories.
func expand(base, pat string) ([]string, error) {
	recursive := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		if pat == "" {
			pat = "."
		}
	}
	root := pat
	if !filepath.IsAbs(root) {
		root = filepath.Join(base, root)
	}
	if !recursive {
		if ok, err := isPackageDir(root); err != nil {
			return nil, err
		} else if !ok {
			return nil, fmt.Errorf("lint: no Go files in %s", root)
		}
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if ok, err := isPackageDir(path); err != nil {
			return err
		} else if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func isPackageDir(dir string) (bool, error) {
	names, err := goFiles(dir)
	return len(names) > 0, err
}

// goFiles lists the non-test Go files of dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// loader type-checks module packages on demand, serving as the
// importer for intra-module imports.
type loader struct {
	fset    *token.FileSet
	modDir  string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func (l *loader) loadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.modDir)
	}
	rel = filepath.ToSlash(rel)
	path := l.modPath
	if rel != "." {
		path += "/" + rel
	}
	return l.check(path)
}

// Import implements types.Importer: module-internal paths load
// through the cache, everything else through the std source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) check(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.modDir, filepath.FromSlash(rel))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:          path,
		Rel:           rel,
		Dir:           dir,
		Fset:          l.fset,
		Files:         files,
		Types:         tpkg,
		Info:          info,
		Deterministic: !exemptDirs[rel],
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
