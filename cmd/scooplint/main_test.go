package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoClean is the acceptance gate in test form: scooplint must
// exit 0 on the whole repo. Every genuine violation has been fixed
// and every surviving map range / wall-clock read carries a reviewed
// //scoop:allow, so a new finding here is a new contract violation.
func TestRepoClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("scooplint not clean on the repo (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run produced output:\n%s", stdout.String())
	}
}

// TestTextFindings pins the human-facing `file:line: [rule] message`
// line format and the nonzero exit.
func TestTextFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./internal/lint/testdata/src/walltime"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d on a dirty package, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines {
		if !strings.Contains(line, "walltime.go:") || !strings.Contains(line, ": [walltime] ") {
			t.Errorf("line %q does not match file:line: [rule] message", line)
		}
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("missing findings summary on stderr: %q", stderr.String())
	}
}

// TestBadPattern: load failures are distinguished from findings.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on a bad pattern, want 2", code)
	}
}
