package exp

import (
	"bytes"
	"runtime"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/netsim"
	"scoop/internal/trace"
)

// tracedConfig is a small cell exercising every emission site: agg
// queries (planner verdicts, combining), churn (reboot purges,
// node-down/restart), reindexing and chunk dissemination.
func tracedConfig() Config {
	cfg := Default()
	cfg.N = 20
	cfg.Duration = 6 * netsim.Minute
	cfg.Warmup = 2 * netsim.Minute
	cfg.Trials = 2
	cfg.AggRatio = 0.5
	s := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration, 0.15, 0.3, 7)
	cfg.Dynamics = &s
	return cfg
}

// traceRun executes the cell with a JSONL sink on trial 0 and returns
// the exact bytes written.
func traceRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = true
	cfg.TraceSinks = func(trial int) []trace.Sink {
		if trial != 0 {
			return nil
		}
		return []trace.Sink{trace.NewJSONL(&buf)}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdentical pins the flight recorder's determinism
// contract: the JSONL stream is a pure function of the configuration
// and seed — identical across repeated runs and across GOMAXPROCS
// settings (trial goroutine interleaving must not leak into trial 0's
// single-threaded event order).
func TestTraceByteIdentical(t *testing.T) {
	cfg := tracedConfig()
	first := traceRun(t, cfg)
	if len(first) == 0 {
		t.Fatal("traced run produced no events")
	}
	if again := traceRun(t, cfg); !bytes.Equal(first, again) {
		t.Fatal("trace differs between identical runs")
	}
	prev := runtime.GOMAXPROCS(1)
	serial := traceRun(t, cfg)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(first, serial) {
		t.Fatal("trace differs between GOMAXPROCS settings")
	}
}

// TestTraceRingDefault checks the no-sink path: events land in the
// per-trial ring surfaced on the TrialResult.
func TestTraceRingDefault(t *testing.T) {
	cfg := tracedConfig()
	cfg.Trials = 1
	cfg.Trace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := res.PerTrial[0].Trace
	if ring == nil || ring.Total() == 0 {
		t.Fatal("default trace ring missing or empty")
	}
	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("ring returned no events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("ring events out of time order at %d: %d < %d", i, evs[i].T, evs[i-1].T)
		}
	}
}
