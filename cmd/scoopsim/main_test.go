package main

import (
	"reflect"
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
