package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
)

func TestParseFlagsDefaultsMatchPaper(t *testing.T) {
	cfg, tracePath, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.Default(); !reflect.DeepEqual(cfg, want) || tracePath != "" {
		t.Fatalf("flag defaults diverge from exp.Default:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, tracePath, err := parseFlags([]string{
		"-policy", "base", "-source", "gaussian", "-nodes", "101",
		"-duration", "20m", "-query", "0", "-trials", "5", "-seed", "42",
		"-trace", "run.jsonl",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != policy.Base || cfg.Source != "gaussian" ||
		cfg.N != 101 || cfg.Duration != 20*netsim.Minute ||
		cfg.QueryInterval != 0 || cfg.Trials != 5 || cfg.Seed != 42 ||
		tracePath != "run.jsonl" {
		t.Fatalf("overrides not applied: %+v trace=%q", cfg, tracePath)
	}
}

func TestParseFlagsRejectsGarbage(t *testing.T) {
	if _, _, err := parseFlags([]string{"-nodes", "many"}, io.Discard); err == nil {
		t.Fatal("non-numeric -nodes accepted")
	}
	if _, _, err := parseFlags([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// Virtual time has millisecond ticks: a finer duration is refused,
	// naming its flag, not truncated.
	for _, name := range []string{"duration", "warmup", "sample", "query"} {
		var errw strings.Builder
		_, _, err := parseFlags([]string{"-" + name, "1500us"}, &errw)
		if err == nil || !strings.Contains(errw.String(), "-"+name+" 1.5ms") {
			t.Errorf("-%s 1500us: err %v, stderr %q; want a rejection naming the flag", name, err, errw.String())
		}
		if code := cli([]string{"-" + name, "1500us"}, io.Discard, io.Discard); code != 2 {
			t.Errorf("-%s 1500us exits %d, want 2", name, code)
		}
	}
}

// The report heads with the trial count that ran: -trials 0 runs one
// trial and says so, and a negative count is rejected before any run.
func TestReportPrintsTrialsRun(t *testing.T) {
	cfg, _, err := parseFlags([]string{"-nodes", "10", "-duration", "2m", "-warmup", "1m", "-trials", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, res)
	if head, _, _ := strings.Cut(out.String(), "\n"); !strings.HasSuffix(head, " trials=1") {
		t.Fatalf("report head %q, want trials=1", head)
	}
	cfg.Trials = -3
	if _, err := run(cfg, ""); err == nil {
		t.Fatal("-trials -3 ran")
	}
}

// -help names exactly the policies a run accepts, in policy.Names()
// order, and each of them validates.
func TestHelpNamesRunnablePolicies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	_, rest, ok := strings.Cut(stderr.String(), "storage policy: ")
	if !ok {
		t.Fatalf("no -policy help in\n%s", stderr.String())
	}
	list, _, _ := strings.Cut(rest, " (default")
	var want []string
	for _, p := range policy.Names() {
		want = append(want, string(p))
		cfg := exp.Default()
		cfg.Policy = p
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if got := strings.Split(list, ", "); !slices.Equal(got, want) {
		t.Errorf("-policy help lists %q, want %q", got, want)
	}
}

// The paper's analytical HASH is no policy: -policy hash fails before
// anything runs, so no trace of some other run lands under its name.
func TestPolicyHashRejected(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "f.jsonl")
	var stdout, stderr bytes.Buffer
	code := cli([]string{"-policy", "hash", "-nodes", "20", "-duration", "5m", "-warmup", "2m",
		"-trials", "1", "-trace", tracePath}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "unknown policy") {
		t.Fatalf("exit %d, stderr %q; want 1 and \"unknown policy\"", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("reported a run:\n%s", stdout.String())
	}
	if fi, err := os.Stat(tracePath); err == nil && fi.Size() != 0 {
		t.Errorf("trace file holds %d bytes", fi.Size())
	}
}
