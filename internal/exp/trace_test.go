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
// contract: the JSONL stream is in time order and a pure function of
// the configuration and seed — identical across repeated runs and
// across GOMAXPROCS settings (the index's fork-join and the encoder's
// goroutine must not leak into the single-threaded event order).
func TestTraceByteIdentical(t *testing.T) {
	cfg := tracedConfig()
	first := traceRun(t, cfg)
	if len(first) == 0 {
		t.Fatal("traced run produced no events")
	}
	evs, err := trace.ReadJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("events out of time order at %d: %d < %d", i, evs[i].T, evs[i-1].T)
		}
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
