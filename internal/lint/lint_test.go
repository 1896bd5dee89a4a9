package lint_test

import (
	"strings"
	"testing"

	"scoop/internal/lint"
)

// The five analyzers each get a want-comment fixture package:
// seeded true positives line-matched via `// want "re"` comments,
// clean negatives that must stay silent, and a //scoop:allow
// exercising suppression through the full pipeline.

func TestMaprange(t *testing.T) {
	analyzerTest(t, "testdata/src/maprange", true, lint.Maprange)
}

func TestFloatfold(t *testing.T) {
	analyzerTest(t, "testdata/src/floatfold", false, lint.Floatfold)
}

func TestWalltime(t *testing.T) {
	analyzerTest(t, "testdata/src/walltime", false, lint.Walltime)
}

// The walltime exemption is a directory quarantine: profiler-shaped
// code outside internal/prof is still flagged...
func TestWalltimeQuarantineBoundary(t *testing.T) {
	analyzerTest(t, "testdata/src/wallprof", false, lint.Walltime)
}

// ...while internal/prof itself — whose subject matter is wall time —
// loads with zero findings and no //scoop:allow comments.
func TestWalltimeExemptsProf(t *testing.T) {
	pkgs, err := lint.Load("../prof", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Rel != "internal/prof" {
		t.Fatalf("loaded %d packages, want internal/prof", len(pkgs))
	}
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{lint.Walltime}) {
		t.Errorf("internal/prof: unexpected walltime finding: %s", d.Message)
	}
}

func TestGlobalrand(t *testing.T) {
	analyzerTest(t, "testdata/src/globalrand", true, lint.Globalrand)
}

func TestPacketretain(t *testing.T) {
	analyzerTest(t, "testdata/src/packetretain", false, lint.Packetretain)
}

// A shared payload reached from a packet may be kept but not written:
// one fixture of writes that must each fire, one of reads, keeps and
// copies that must stay silent.
func TestPacketretainSharedWrites(t *testing.T) {
	analyzerTest(t, "testdata/src/sharedwrite", false, lint.Packetretain)
}

func TestPacketretainSharedReads(t *testing.T) {
	analyzerTest(t, "testdata/src/sharedread", false, lint.Packetretain)
}

// TestMaprangeNotDeterministic pins the deterministic-package gate:
// the same fixture, with the flag cleared, must be silent.
func TestMaprangeNotDeterministic(t *testing.T) {
	pkgs, err := lint.Load("testdata/src/maprange", ".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs[0].Deterministic = false
	if diags := lint.Run(pkgs, []*lint.Analyzer{lint.Maprange}); len(diags) != 0 {
		t.Fatalf("maprange fired outside a deterministic package: %v", diags)
	}
}

// TestAllowGrammar checks the //scoop:allow contract: rule mandatory,
// rule must exist, reason mandatory — and a malformed allow does not
// suppress the finding next to it. (These land on the comment's own
// line, so they are asserted directly rather than via want comments.)
func TestAllowGrammar(t *testing.T) {
	pkgs, err := lint.Load("testdata/src/allowgrammar", ".")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs, lint.Analyzers)
	var allowMsgs []string
	walltime := 0
	for _, d := range diags {
		switch d.Rule {
		case lint.AllowRule:
			allowMsgs = append(allowMsgs, d.Message)
		case "walltime":
			walltime++
		default:
			t.Errorf("unexpected rule %q: %s", d.Rule, d)
		}
	}
	wantAllows := []string{"needs a rule", "unknown rule", "non-empty reason"}
	if len(allowMsgs) != len(wantAllows) {
		t.Fatalf("got %d allow findings %v, want %d", len(allowMsgs), allowMsgs, len(wantAllows))
	}
	for _, frag := range wantAllows {
		found := false
		for _, msg := range allowMsgs {
			if strings.Contains(msg, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("no allow finding mentions %q in %v", frag, allowMsgs)
		}
	}
	// Exactly one of the two time.Now sites is validly suppressed.
	if walltime != 1 {
		t.Errorf("got %d walltime findings, want 1 (the reasonless allow must not suppress)", walltime)
	}
}

// TestLoadDeterministicFlag pins the rule the loader derives from
// package directories: every package is bound by the DESIGN.md §2
// contract except the exempt harness packages. Module packages are
// read from the shared whole-module load.
func TestLoadDeterministicFlag(t *testing.T) {
	byRel := map[string]*lint.Package{}
	for _, p := range loadModule(t) {
		byRel[p.Rel] = p
	}
	fixture, err := lint.Load("testdata/src/maprange", ".")
	if err != nil {
		t.Fatal(err)
	}
	byRel[fixture[0].Rel] = fixture[0]
	for rel, want := range map[string]bool{
		"internal/core":                       true,
		"internal/trickle":                    true,
		"internal/netsim":                     true,
		"internal/metrics":                    true,
		"internal/prof":                       true,
		"internal/dense":                      true,
		"cmd/scoopflight":                     true,
		"internal/lint/testdata/src/maprange": true,
		"internal/exp":                        true,
		"internal/sweep":                      false,
	} {
		p := byRel[rel]
		if p == nil {
			t.Fatalf("%s: not loaded", rel)
		}
		if p.Deterministic != want {
			t.Errorf("%s: Deterministic=%v, want %v", p.Path, p.Deterministic, want)
		}
	}
}

// TestLoadRecursive checks ./... expansion skips testdata and finds
// the real packages.
func TestLoadRecursive(t *testing.T) {
	pkgs := loadModule(t)
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Rel] = true
		if strings.Contains(p.Rel, "testdata") {
			t.Errorf("recursive load descended into %s", p.Rel)
		}
	}
	for _, want := range []string{"internal/core", "internal/lint", "internal/netsim", "internal/sweep"} {
		if !seen[want] {
			t.Errorf("recursive load missed %s (got %v)", want, seen)
		}
	}
}

func TestGoroutine(t *testing.T) {
	analyzerTest(t, "testdata/src/goroutine", true, lint.Goroutine)
}

// TestGoroutineNotDeterministic pins the deterministic-package gate:
// the harness packages exempt from DESIGN.md §2 (exp, sweep) may use
// goroutines freely.
func TestGoroutineNotDeterministic(t *testing.T) {
	pkgs, err := lint.Load("testdata/src/goroutine", ".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs[0].Deterministic = false
	if diags := lint.Run(pkgs, []*lint.Analyzer{lint.Goroutine}); len(diags) != 0 {
		t.Fatalf("goroutine fired outside a deterministic package: %v", diags)
	}
}
