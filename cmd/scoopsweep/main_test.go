package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoop/internal/sweep"
)

// oneCell is a grid file whose single cell runs in milliseconds.
const oneCell = `{"name": "smoke", "policies": ["scoop"], "sizes": [12],
	"duration": "4m", "warmup": "1m", "queryInterval": "15s", "seed": 3}`

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseArgsDefaults(t *testing.T) {
	c, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.grid.Cells(), sweep.Default().Cells(); len(got) != len(want) || len(got) < 24 {
		t.Fatalf("no grid file gives %d cells; sweep.Default() has %d, want >= 24", len(got), len(want))
	}
	if c.out != "sweep-default.json" || c.check != "" {
		t.Fatalf("default artifact path %q, check %q", c.out, c.check)
	}
}

func TestParseArgsGridSpec(t *testing.T) {
	grid := writeFile(t, "ci.grid.json", `{"name": "ci", "policies": ["scoop", "base"],
		"topologies": ["uniform", "grid"], "sizes": [12, 24], "lossRates": [0, 0.25],
		"sources": ["real", "unique"], "duration": "8m", "warmup": "2m",
		"trials": 2, "seed": 99}`)
	c, err := parseArgs([]string{"-parallel", "3", "-regions", "4", grid}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := c.grid
	if len(g.Cells()) != 2*2*2*2*2 {
		t.Fatalf("grid expands to %d cells", len(g.Cells()))
	}
	if g.Seed != 99 || g.Trials != 2 || g.Regions != 4 || c.parallel != 3 {
		t.Fatalf("parsed grid: %+v parallel=%d", g, c.parallel)
	}
	if c.out != "sweep-ci.json" {
		t.Fatalf("artifact path %q", c.out)
	}
}

func TestParseArgsRejectsBadInput(t *testing.T) {
	grid := writeFile(t, "ok.grid.json", oneCell)
	cases := [][]string{
		{"-no-such-flag"},
		{"-policies", "scoop"}, // the grid is a file now
		{filepath.Join(t.TempDir(), "absent.grid.json")},
		{writeFile(t, "typo.grid.json", `{"polices": ["scoop"]}`)},
		{grid, "second-positional"},
	}
	for _, args := range cases {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// The command line is the four run-mode flags and nothing else.
func TestUsageListsRunModeFlagsOnly(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("-h exits %d", code)
	}
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if got := strings.Join(flags, " "); got != "-check -out -parallel -regions" {
		t.Fatalf("flags: %s\n%s", got, stderr.String())
	}
}

// End-to-end smoke test: a 1-cell sweep runs, writes its artifact, and
// -check passes against that artifact; one edited number fails it with
// a line naming the cell, the field and both values.
func TestRunWritesArtifactAndGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation cell")
	}
	grid := writeFile(t, "smoke.grid.json", oneCell)
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep-smoke.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out, "-parallel", "1", grid}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	rep, err := sweep.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Msgs <= 0 {
		t.Fatalf("artifact: %+v", rep)
	}

	again := filepath.Join(dir, "again.json")
	stdout.Reset()
	if code := run([]string{"-out", again, "-check", out, grid}, &stdout, &stderr); code != 0 {
		t.Fatalf("check against own output failed (%d): %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "byte for byte") {
		t.Fatalf("no confirmation in output: %q", stdout.String())
	}

	msgs := rep.Cells[0].Msgs
	rep.Cells[0].Msgs = msgs + 1
	doctored := filepath.Join(dir, "sweep-doctored.json")
	if err := sweep.WriteFile(doctored, rep); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-out", again, "-check", doctored, grid}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d against an artifact with one number edited", code)
	}
	want := "cell 0 scoop/uniform/n12/loss0/real: msgs: got"
	if !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr does not name the cell and field (%q):\n%s", want, stderr.String())
	}
}

// Neither a missing -check artifact nor a malformed axis value costs a
// simulation: both fail before the first cell runs.
func TestRunRejectsMissingBaseline(t *testing.T) {
	for name, args := range map[string][]string{
		"missing -check": {"-check", filepath.Join(t.TempDir(), "absent.json"),
			writeFile(t, "ok.grid.json", oneCell)},
		"oversized cell": {writeFile(t, "big.grid.json",
			`{"sizes": [12, 1100], "duration": "4m", "warmup": "1m"}`)},
	} {
		var stdout, stderr bytes.Buffer
		args = append([]string{"-out", filepath.Join(t.TempDir(), "never.json")}, args...)
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d\n%s", name, code, stderr.String())
		}
		if strings.Contains(stderr.String(), "msgs=") || stdout.Len() != 0 {
			t.Errorf("%s: a cell ran or an artifact was written:\n%s%s", name, stderr.String(), stdout.String())
		}
	}
}
