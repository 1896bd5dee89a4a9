package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"scoop/internal/exp"
	"scoop/internal/policy"
	"scoop/internal/sweep"
)

// Every piece of work runs in a fresh child process (the binary re-execs
// itself), so that peak memory and garbage-collector state belong to that
// piece alone. A job is passed as JSON in -child; the child answers with
// one JSON line on its standard output.

const (
	jobSetup   = "setup"   // set-up alone, several times
	jobMeasure = "measure" // the timed units, all instrumentation off
	jobCheck   = "check"   // short untimed runs: invariants and digest twins
	jobTraced  = "traced"  // profiler, App shim and isolated calls
)

type job struct {
	Kind     string  `json:"kind"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"` // measure: how long to keep running units
	Frac     float64 `json:"frac"`    // virtual length, 1 = full
	Smoke    bool    `json:"smoke"`
	OutDir   string  `json:"out_dir"`
}

// jobResult is what a child reports; each kind fills its own part.
type jobResult struct {
	SetupS    []float64 `json:"setup_s,omitempty"`
	Units     []unit    `json:"units,omitempty"`
	Model     model     `json:"model"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Layers    layers    `json:"layers,omitempty"`
	// Digest is the stats_digest of the workload at full length, "" when
	// the job cannot speak for it.
	Digest string   `json:"digest"`
	Ops    int      `json:"ops"`
	Failed int      `json:"failed"`
	Notes  []string `json:"notes,omitempty"`
}

func (r *jobResult) fail(ops int, format string, args ...any) {
	r.Failed += ops
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// count adds a unit's ops to the result and reports whether it ran clean.
func (r *jobResult) count(what string, u unit) bool {
	r.Ops += u.Ops
	if u.Failed > 0 {
		r.fail(u.Failed, "%s: %s", what, u.Err)
		return false
	}
	return true
}

// same fails ops when two runs that must share a digest do not.
func (r *jobResult) same(what, a, b string, ops int) {
	if a != b {
		r.fail(ops, "%s: digest %s != %s", what, a, b)
	}
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

func runJob(j job) (jobResult, error) {
	s, err := newSpec(j.Workload, j.Seed, j.Frac)
	if err != nil {
		return jobResult{}, err
	}
	var r jobResult
	switch j.Kind {
	case jobSetup:
		su := s.setup()
		reps := setupReps
		if j.Smoke {
			reps = 1
		}
		for i := 0; i < reps; i++ {
			runtime.GC()
			u := runUnit(su, runOpts{})
			r.count("setup", u)
			r.SetupS = append(r.SetupS, u.WallS)
		}
	case jobMeasure:
		measure(&r, s, j.Seconds)
	case jobCheck:
		check(&r, s)
	case jobTraced:
		if err := traced(&r, s, j); err != nil {
			return jobResult{}, err
		}
	default:
		return jobResult{}, fmt.Errorf("unknown job kind %q", j.Kind)
	}
	r.PeakRSSMB = peakRSSMB()
	return r, nil
}

// measure runs units of the spec, each from a collected heap, until about
// `seconds` of wall time are spent: it stops once another unit would end
// further from the target than stopping now. Every unit has the same
// inputs, so all must report one digest.
func measure(r *jobResult, s spec, seconds float64) {
	var elapsed float64
	for {
		runtime.GC()
		u := runUnit(s, runOpts{})
		r.count("measured unit", u)
		u.results, u.cells = nil, nil // keep only the numbers alive across units
		r.Units = append(r.Units, u)
		elapsed += u.WallS
		if elapsed+0.5*elapsed/float64(len(r.Units)) >= seconds {
			break
		}
	}
	first := r.Units[0]
	r.Digest, r.Model = first.Digest, first.model
	for i, u := range r.Units[1:] {
		r.same(fmt.Sprintf("unit %d vs unit 0", i+1), u.Digest, first.Digest, u.Ops)
		if u.TraceBytes != first.TraceBytes || u.TraceLines != first.TraceLines {
			r.fail(u.Ops, "unit %d: trace %d B / %d lines, unit 0: %d B / %d lines",
				i+1, u.TraceBytes, u.TraceLines, first.TraceBytes, first.TraceLines)
		}
	}
}

// check makes the untimed correctness runs at the spec's (short) length:
// one with the invariant checker on, one plain, and the twin that must
// not change the simulated outcome — the region-parallel engine for
// scale1000, the recorder off for a trace workload. (The
// traced run holds profiled = unprofiled at full length.)
func check(r *jobResult, s spec) {
	s = s.checkSpec()
	inv := runUnit(s, runOpts{invariants: true})
	if !r.count("invariant run", inv) {
		return
	}
	twin := func(what string, o runOpts) {
		u := runUnit(s, o)
		if r.count(what, u) {
			r.same(what+" vs invariant run", u.Digest, inv.Digest, u.Ops)
		}
	}
	twin("plain run", runOpts{})
	if s.grid != nil {
		return // a sweep grid has no engine or recorder switch
	}
	if s.twinRegions > 1 {
		twin("region-parallel run", runOpts{regions: s.twinRegions})
	}
	if s.cfgs[0].Trace {
		twin("trace-off run", runOpts{noTrace: true})
	}
}

// traced produces every per-layer metric. It runs, one after another and
// each from a collected heap: a plain experiment (the reference wall), a
// profiled one (P), the bench's own driver with the App shim off and on
// (S), the workload's twin (region-parallel engine, recorder off), and
// the isolated calls (I). Workloads with several configurations trace the
// first.
func traced(r *jobResult, s spec, j job) error {
	l := newLayers()
	r.Layers = l

	one := s // the single network the profiler and the shim look at
	if s.grid != nil {
		sw := runUnit(s, runOpts{})
		if !r.count("sweep", sw) {
			return nil
		}
		r.Digest = sw.Digest
		l.fromSweep(sw)
		l.fromModel(sw.model)
		cfg, err := paperCell(s.grid)
		if err != nil {
			return err
		}
		one = spec{name: s.name, cfgs: []exp.Config{cfg}}
	} else {
		one.cfgs = s.cfgs[:1]
	}
	cfg := one.cfgs[0]

	runtime.GC()
	plain := runUnit(one, runOpts{})
	if !r.count("plain run", plain) {
		return nil
	}
	vs := plain.VirtualS
	l.fromResult(plain.results[0], vs)
	if s.grid == nil {
		l.fromModel(plain.model)
		if len(s.cfgs) == 1 {
			r.Digest = plain.Digest
		}
	}
	l["rt.alloc_mb_per_vs"] = ratio(float64(plain.AllocBytes)/1e6, vs)
	l["rt.gc_cycles"] = float64(plain.GCCycles)
	l["rt.gc_pause_ms"] = float64(plain.GCPauseNs) / 1e6

	runtime.GC()
	profiled := runUnit(one, runOpts{profile: true})
	if r.count("profiled run", profiled) {
		r.same("profiled vs plain", profiled.Digest, plain.Digest, profiled.Ops)
		l.fromProfile(profiled.results[0].PerTrial[0].Prof, vs)
		l["prof.overhead_ratio"] = ratio(profiled.WallS, plain.WallS)
	}

	if err := shimmed(r, l, cfg, plain.Digest, s.name, j.OutDir); err != nil {
		return err
	}

	if s.twinRegions > 1 {
		runtime.GC()
		par := runUnit(one, runOpts{regions: s.twinRegions})
		if r.count("region-parallel run", par) {
			r.same("region-parallel vs serial", par.Digest, plain.Digest, par.Ops)
			l["netsim.k2_speedup"] = ratio(plain.WallS, par.WallS)
		}
	}

	if cfg.Trace {
		runtime.GC()
		off := runUnit(one, runOpts{noTrace: true})
		if r.count("trace-off run", off) {
			r.same("trace off vs on", off.Digest, plain.Digest, off.Ops)
			l["trace.overhead_ratio"] = ratio(plain.WallS, off.WallS)
			l["trace.bytes_per_vs"] = ratio(float64(plain.TraceBytes), vs)
			l["trace.events_per_vs"] = ratio(float64(plain.TraceLines), vs)
		}
	}
	return l.fromIsolated(j.Smoke)
}

// shimmed runs the bench's own driver with the shim off and on. The two
// must agree on the digest; agreeing with exp.Run is reported only.
func shimmed(r *jobResult, l layers, cfg exp.Config, expDigest, workload, outDir string) error {
	runtime.GC()
	off, err := runDriver(cfg, false)
	if err != nil {
		return err
	}
	runtime.GC()
	on, err := runDriver(cfg, true)
	if err != nil {
		return err
	}
	r.Ops += 2
	r.same("driver shim on vs off", on.Digest, off.Digest, 2)
	l.fromProbe(on.Probe, on.VirtualS)
	l["bench.shim_overhead_ratio"] = ratio(on.WallS, off.WallS)
	if off.Digest == expDigest {
		l["bench.driver_matches_exp"] = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(outDir, "spans-"+workload+".jsonl"), on.Probe.spans)
}

// paperCell rebuilds the configuration sweep.Run gives the grid's
// SCOOP / REAL / loss 0 / churn 0 cell.
func paperCell(g *sweep.Grid) (exp.Config, error) {
	for _, c := range g.Cells() {
		if c.Policy == policy.Scoop && c.Source == "real" && c.Loss == 0 && c.Churn == 0 {
			cfg := exp.Default()
			cfg.Policy, cfg.Topology, cfg.N, cfg.Source = c.Policy, c.Topology, c.N, c.Source
			cfg.Duration, cfg.Warmup = g.Duration, g.Warmup
			cfg.SampleInterval, cfg.QueryInterval = g.SampleInterval, g.QueryInterval
			cfg.Trials = 1
			cfg.Seed = sweep.CellSeed(g.Seed, c.Index)
			return cfg, nil
		}
	}
	return exp.Config{}, fmt.Errorf("grid %q has no SCOOP/REAL/loss 0/churn 0 cell", g.Name)
}

// fromSweep fills the sweep and model metrics from a sweep unit.
func (l layers) fromSweep(u unit) {
	var ms []float64
	var busy float64
	for _, c := range u.cells {
		ms = append(ms, c.WallMS)
		busy += c.WallMS / 1e3
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(u.cells) {
		workers = len(u.cells)
	}
	l["sweep.cells_per_s"] = ratio(float64(len(u.cells)), u.WallS)
	l["sweep.worker_busy_share"] = ratio(busy, float64(workers)*u.WallS)
	l["sweep.cell_ms_p50"] = percentile(ms, 50)
	l["sweep.cell_ms_p90"] = percentile(ms, 90)
	l["model.base_over_scoop"] = ratio(u.model.BaseMsgs, u.model.ScoopMsgs)
}

// fromModel fills the model ratios of a unit: over the Scoop cells of a
// sweep, over the unit's configurations otherwise.
func (l layers) fromModel(m model) {
	l["model.data_stored"] = ratio(m.Stored, m.StoredOf)
	l["model.query_return"] = ratio(m.Replies, m.Asked)
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// childEnv marks a process as a child of the benchmark, so that the test
// binary knows to act as the benchmark instead of running its tests.
const childEnv = "SCOOPBENCH_CHILD"

// spawn runs one job in a fresh child process and waits for it to end.
// The child's diagnostics go to this process's standard error.
func spawn(j job) (jobResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return jobResult{}, err
	}
	arg, err := json.Marshal(j)
	if err != nil {
		return jobResult{}, err
	}
	cmd := exec.Command(exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return jobResult{}, fmt.Errorf("%s job of %s: %w", j.Kind, j.Workload, err)
	}
	last := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var r jobResult
	if err := json.Unmarshal(last, &r); err != nil {
		return jobResult{}, fmt.Errorf("%s job of %s: bad result line: %w", j.Kind, j.Workload, err)
	}
	return r, nil
}
