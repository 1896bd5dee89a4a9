package lint_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocNamesResolve holds DESIGN.md and README.md to the code they
// describe: every backticked name must resolve in the module's source
// (tests included, bench/ and testdata/ excluded), and every
// "DESIGN.md §N" citation in the module's Go files, README.md and
// ci.yml must name a "## §N" heading that exists. A renamed or deleted
// function then fails here instead of going stale in the prose.
func TestDocNamesResolve(t *testing.T) {
	m := loadModuleNames(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, p := range m.check(doc, readFile(t, filepath.Join(m.root, doc))) {
			t.Error(p)
		}
	}
	cited := []string{".github/workflows/ci.yml"}
	cited = append(cited, m.goFiles...)
	for _, f := range cited {
		for _, p := range m.citations(f, readFile(t, filepath.Join(m.root, f))) {
			t.Error(p)
		}
	}
}

// TestDocNamesResolver feeds the resolver fixtures: names the code
// once had must be reported, and each rule's accepted shape must pass.
func TestDocNamesResolver(t *testing.T) {
	m := loadModuleNames(t)
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{"`sortedChunkKeys`", false},         // deleted function
		{"`Assembler.Offer`", false},         // deleted type
		{"`trickle.OnTimer`", false},         // a method, not a package-level name
		{"see DESIGN.md " + "§42", false},    // no such section (split so this file cites nothing)
		{"`exp.Config.TraceReading`", false}, // deleted field
		{"`TestNoSuchThing*`", false},
		{"`cmd/scoopnothing`", false},
		{"`netsim.no_such_metric`", false},
		{"`exp.Config.Validate`", true}, // pkg.Name.Member
		{"`core.TestForwardZeroAllocs`", true},
		{"`TestScaleTier*`", true},            // test-name prefix
		{"`netsim.k2_speedup`", true},         // a BENCHMARK.json metric
		{"`rand.IntN`", true},                 // standard library
		{"`Network.Restart`", true},           // Type.Member
		{"`exp.NewTrial(cfg, 0, nil)`", true}, // call arguments stripped
		{"`queryMixes`", false},               // deleted JSON field
		{"`aggMix`", true},                    // a JSON field name
		{"`cmd/scoopflight`", true},
		{"`testdata/sweep-{ci,dynamics,agg}.grid.json`", true},
		{"`cmd/scooplint.TestRepoClean`", true},
		{"DESIGN.md §2 and §19", true},
		{"`go test -race ./...`", true}, // not a name: ignored
	} {
		probs := m.check("fixture.md", tc.text)
		if tc.ok && len(probs) != 0 {
			t.Errorf("%s: want accepted, got %q", tc.text, probs)
		}
		if !tc.ok && len(probs) == 0 {
			t.Errorf("%s: want reported, got nothing", tc.text)
		}
	}
}

// pkgNames is what one package declares: its package-level names, and
// the methods and fields of each of its types.
type pkgNames struct {
	decls   map[string]bool
	members map[string]map[string]bool
}

// moduleNames indexes the module's source for the resolver.
type moduleNames struct {
	root     string
	goFiles  []string                     // module-relative
	byName   map[string][]*pkgNames       // package clause name, _test suffix dropped
	byDir    map[string]*pkgNames         // module-relative directory
	types    map[string][]map[string]bool // type name → its members, per declaring package
	idents   map[string]bool              // identifiers and JSON field names, first letter lowered
	tests    []string                     // Test, Fuzz and Benchmark functions
	std      map[string]bool              // standard-library package names the module imports
	metrics  map[string]bool              // BENCHMARK.json metric names
	paths    map[string]bool              // module-relative files and directories
	bases    map[string]bool              // file base names
	sections map[int]bool                 // DESIGN.md "## §N" headings
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

// loadModuleNames parses every .go file of the module. The standard
// library counts as the packages the module imports: the module has
// no other dependency, so every non-module import is one.
func loadModuleNames(t *testing.T) *moduleNames {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m := &moduleNames{
		root: root, byName: map[string][]*pkgNames{}, byDir: map[string]*pkgNames{},
		types: map[string][]map[string]bool{}, idents: map[string]bool{}, std: map[string]bool{},
		metrics: map[string]bool{}, paths: map[string]bool{}, bases: map[string]bool{}, sections: map[int]bool{},
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() && path != root {
			switch name := d.Name(); {
			case rel == "bench" || name == "testdata":
				return m.addPaths(path) // its files are paths, its Go is not the module's source
			case strings.HasPrefix(name, ".") && name != ".github":
				return filepath.SkipDir
			}
		}
		m.paths[rel] = true
		m.bases[d.Name()] = true
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.goFiles = append(m.goFiles, rel)
		m.addFile(filepath.ToSlash(filepath.Dir(rel)), f, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(readFile(t, filepath.Join(root, "BENCHMARK.json"))), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name string }
		if err := json.Unmarshal(raw[key], &ms); err != nil {
			t.Fatal(err)
		}
		for _, x := range ms {
			m.metrics[x.Name] = true
		}
	}
	for _, sm := range regexp.MustCompile(`(?m)^## §(\d+) `).FindAllStringSubmatch(readFile(t, filepath.Join(root, "DESIGN.md")), -1) {
		n, _ := strconv.Atoi(sm[1])
		m.sections[n] = true
	}
	return m
}

// addPaths records the files under a directory whose Go source is not
// the module's (testdata, bench/) so that paths into it still resolve.
func (m *moduleNames) addPaths(dir string) error {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		r, _ := filepath.Rel(m.root, path)
		m.paths[filepath.ToSlash(r)] = true
		m.bases[d.Name()] = true
		return nil
	})
	if err != nil {
		return err
	}
	return filepath.SkipDir
}

func (m *moduleNames) addFile(dir string, f *ast.File, isTest bool) {
	p := m.byDir[dir]
	if p == nil {
		p = &pkgNames{decls: map[string]bool{}, members: map[string]map[string]bool{}}
		m.byDir[dir] = p
		name := strings.TrimSuffix(f.Name.Name, "_test")
		m.byName[name] = append(m.byName[name], p)
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
			m.types[typ] = append(m.types[typ], p.members[typ])
		}
		p.members[typ][name] = true
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "scoop" || strings.HasPrefix(path, "scoop/") {
			continue
		}
		elems := strings.Split(path, "/")
		name := elems[len(elems)-1]
		if len(elems) > 1 && majorVersion.MatchString(name) {
			name = elems[len(elems)-2]
		}
		m.std[name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.decls[d.Name.Name] = true
				if isTest && testTok.MatchString(d.Name.Name) {
					m.tests = append(m.tests, d.Name.Name)
				}
				break
			}
			recv := d.Recv.List[0].Type
			if s, ok := recv.(*ast.StarExpr); ok {
				recv = s.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.decls[n.Name] = true
					}
				case *ast.TypeSpec:
					p.decls[s.Name.Name] = true
					member(s.Name.Name, "") // a type with no members is still a type
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 { // embedded: the field is named by its type
							typ := fl.Type
							if st, ok := typ.(*ast.StarExpr); ok {
								typ = st.X
							}
							switch e := typ.(type) {
							case *ast.Ident:
								member(s.Name.Name, e.Name)
							case *ast.SelectorExpr:
								member(s.Name.Name, e.Sel.Name)
							}
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			m.idents[lowerFirst(n.Name)] = true
		case *ast.Field:
			if n.Tag != nil {
				tag, _ := strconv.Unquote(n.Tag.Value)
				name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				m.idents[lowerFirst(name)] = true
			}
		}
		return true
	})
}

var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	fence     = regexp.MustCompile("(?ms)^```.*?^```")
	callArgs  = regexp.MustCompile(`(\(.*\)|\[\w*\])$`)
	pathTok   = regexp.MustCompile(`^[\w./{},*-]+$`)
	dottedTok = regexp.MustCompile(`^\w+(\.\w+)+$`)
	fileTok   = regexp.MustCompile(`^[\w.{},-]+\.(go|json|md)$`)
	identTok  = regexp.MustCompile(`^[A-Za-z_]\w*\*?$`)
	testTok   = regexp.MustCompile(`^(Test|Fuzz|Benchmark)([A-Z_]\w*)?\*?$`)
	cite      = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)?(?:\s|//|#)*(§\d+(?:(?:[\s,/–-]|and|or|//|#)*§\d+)*)`)
	sectionNo = regexp.MustCompile(`§(\d+)`)

	majorVersion = regexp.MustCompile(`^v\d+$`) // math/rand/v2 is package rand
	repoPath     = regexp.MustCompile(`^(cmd|internal|testdata|examples|bench|\.github)/`)
)

// check resolves a markdown document: its backticked names and its
// section citations. Fenced code blocks are skipped.
func (m *moduleNames) check(file, text string) []string {
	text = fence.ReplaceAllStringFunc(text, func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	var probs []string
	for _, ix := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		tok := text[ix[2]:ix[3]]
		if why := m.resolve(tok); why != "" {
			line := 1 + strings.Count(text[:ix[0]], "\n")
			probs = append(probs, fmt.Sprintf("%s:%d: `%s`: %s", file, line, tok, why))
		}
	}
	return append(probs, m.citations(file, text)...)
}

// citations reports every DESIGN.md §N whose section does not exist.
func (m *moduleNames) citations(file, text string) []string {
	var probs []string
	for _, ix := range cite.FindAllStringSubmatchIndex(text, -1) {
		for _, sm := range sectionNo.FindAllStringSubmatch(text[ix[2]:ix[3]], -1) {
			if n, _ := strconv.Atoi(sm[1]); !m.sections[n] {
				line := 1 + strings.Count(text[:ix[0]], "\n")
				probs = append(probs, fmt.Sprintf("%s:%d: DESIGN.md §%d: no such section", file, line, n))
			}
		}
	}
	return probs
}

// resolve returns why tok names nothing in the module, or "" when it
// resolves or is not of a shape the rules cover.
func (m *moduleNames) resolve(tok string) string {
	tok = strings.TrimPrefix(strings.TrimPrefix(tok, "*"), "[]")
	if i := strings.IndexAny(tok, "(["); i > 0 && callArgs.MatchString(tok[i:]) {
		tok = tok[:i]
	}
	switch {
	case strings.Contains(tok, "/") && pathTok.MatchString(tok):
		return m.resolvePath(tok)
	case fileTok.MatchString(tok):
		for _, p := range expand(tok) {
			if !m.bases[p] && !m.paths[p] {
				return "no such file"
			}
		}
		return ""
	case testTok.MatchString(tok):
		return m.resolveTest(tok)
	case dottedTok.MatchString(tok):
		return m.resolveDotted(tok)
	case identTok.MatchString(tok) && strings.ToLower(tok) != tok && strings.ToUpper(tok) != tok:
		if !m.idents[lowerFirst(tok)] {
			return "no such identifier"
		}
	}
	return ""
}

func (m *moduleNames) resolvePath(tok string) string {
	if !repoPath.MatchString(tok) &&
		!strings.HasSuffix(tok, ".go") && !strings.HasSuffix(tok, ".json") {
		return "" // a benchmark name or other slash-separated word, not a path
	}
	// cmd/scooplint.TestRepoClean: a directory's package, then a name in it.
	if dir, name, ok := strings.Cut(tok, "."); ok && !strings.Contains(name, "/") && name != "" && name[0] >= 'A' && name[0] <= 'Z' {
		p := m.byDir[dir]
		if p == nil {
			return "no such package directory"
		}
		if !p.decls[name] {
			return "not declared in " + dir
		}
		return ""
	}
	for _, p := range expand(strings.TrimSuffix(tok, "/")) {
		if !m.paths[p] {
			return "no such path " + p
		}
	}
	return ""
}

// expand spells out one {a,b,c} alternation.
func expand(p string) []string {
	i, j := strings.Index(p, "{"), strings.Index(p, "}")
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expand(p[:i]+alt+p[j+1:])...)
	}
	return out
}

func (m *moduleNames) resolveTest(tok string) string {
	prefix, wild := strings.CutSuffix(tok, "*")
	for _, name := range m.tests {
		if name == tok || wild && strings.HasPrefix(name, prefix) {
			return ""
		}
	}
	return "no such test"
}

// resolveDotted takes pkg.Name[.Member], Type.Member, a BENCHMARK.json
// metric or a standard-library selector, in that order.
func (m *moduleNames) resolveDotted(tok string) string {
	parts := strings.Split(tok, ".")
	if m.metrics[tok] {
		return ""
	}
	if pkgs := m.byName[parts[0]]; pkgs != nil {
		if len(parts) > 3 {
			return "too many selectors"
		}
		for _, p := range pkgs {
			if !p.decls[parts[1]] {
				continue
			}
			if len(parts) == 2 || p.members[parts[1]][parts[2]] {
				return ""
			}
		}
		if strings.Contains(tok, "_") {
			return "no such metric in BENCHMARK.json"
		}
		return "not declared in package " + parts[0]
	}
	if m.std[parts[0]] {
		return ""
	}
	if len(parts) == 2 {
		for _, ms := range m.types[parts[0]] {
			if ms[parts[1]] {
				return ""
			}
		}
	}
	if m.types[parts[0]] != nil {
		return "no such method or field"
	}
	return "no such package or type"
}
