package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
)

func TestParseFlagsDefaultsMatchPaper(t *testing.T) {
	cfg, tracePath, err := parseFlags(nil)
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
	})
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
	if _, _, err := parseFlags([]string{"-nodes", "many"}); err == nil {
		t.Fatal("non-numeric -nodes accepted")
	}
	if _, _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// The report heads with the trial count that ran: -trials 0 runs one
// trial and says so, and a negative count is rejected before any run.
func TestReportPrintsTrialsRun(t *testing.T) {
	cfg, _, err := parseFlags([]string{"-nodes", "10", "-duration", "2m", "-warmup", "1m", "-trials", "0"})
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
