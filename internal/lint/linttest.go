package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is a hand-rolled stand-in for x/tools analysistest (the
// module stays dependency-free): fixture packages under
// testdata/src/<rule>/ carry `// want "regexp"` comments on the lines
// where an analyzer must report, and the harness checks findings and
// expectations match one-to-one. Clean negative cases simply carry no
// want comment — an unexpected finding there fails the test.

// TB is the subset of *testing.T the harness needs; taking the
// interface keeps package testing out of the scooplint binary.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// AnalyzerTest loads the fixture package in dir, forces its
// Deterministic flag to det (fixtures load as deterministic, like
// every package exemptDirs does not list), runs the analyzers through the full pipeline — including
// //scoop:allow suppression — and matches the findings against the
// fixture's want comments.
func AnalyzerTest(t TB, dir string, det bool, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Errorf("loading fixture %s: %v", dir, err)
		return
	}
	for _, p := range pkgs {
		p.Deterministic = det
	}
	wants := collectWants(t, pkgs)
	diags := Run(pkgs, analyzers)
	for _, d := range diags {
		if !wants.match(d) {
			t.Errorf("%s: unexpected finding: [%s] %s", posString(d.Pos), d.Rule, d.Message)
		}
	}
	wants.reportUnmatched(t)
}

type want struct {
	pos     token.Position
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	byLine map[string][]*want // "file:line" -> expectations
}

func wantKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// match consumes the first unmatched expectation on the finding's
// line whose regexp matches the message.
func (ws *wantSet) match(d Diagnostic) bool {
	for _, w := range ws.byLine[wantKey(d.Pos.Filename, d.Pos.Line)] {
		if !w.matched && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// reportUnmatched reports the expectations no finding met, in key
// order, so a fixture's failures read the same on every run.
func (ws *wantSet) reportUnmatched(t TB) {
	t.Helper()
	keys := make([]string, 0, len(ws.byLine))
	for k := range ws.byLine {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range ws.byLine[k] {
			if !w.matched {
				t.Errorf("%s: expected finding matching %q, got none", posString(w.pos), w.re)
			}
		}
	}
}

var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")

// collectWants parses every `// want "re" "re" ...` comment. Each
// quoted chunk (double quotes with Go escapes, or backquotes) is a
// regexp matched against finding messages on that comment's line.
func collectWants(t TB, pkgs []*Package) *wantSet {
	t.Helper()
	ws := &wantSet{byLine: map[string][]*want{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Slash)
					quoted := wantQuoted.FindAllString(rest, -1)
					if len(quoted) == 0 {
						t.Errorf("%s: malformed want comment %q", posString(pos), c.Text)
						continue
					}
					for _, q := range quoted {
						var pat string
						if q[0] == '`' {
							pat = q[1 : len(q)-1]
						} else {
							var err error
							pat, err = strconv.Unquote(q)
							if err != nil {
								t.Errorf("%s: bad want string %s: %v", posString(pos), q, err)
								continue
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Errorf("%s: bad want regexp %q: %v", posString(pos), pat, err)
							continue
						}
						key := wantKey(pos.Filename, pos.Line)
						ws.byLine[key] = append(ws.byLine[key], &want{pos: pos, re: re})
					}
				}
			}
		}
	}
	return ws
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
