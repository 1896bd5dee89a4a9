// Command bench is the repository's benchmark: one command that measures
// simulation rate, memory and model fidelity on four named workloads and
// splits the time by layer from outside the simulator. See README.md.
//
// Run it from this directory:
//
//	go run . -seed 1                        every workload, repetitions, traced run, checks
//	go run . -smoke                         the same at 1/20 virtual length, for tests
//	go run . -compare out/a.json out/b.json hold two results against the bounds
//	go run . -workload scale1000 -seed 1 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command expands to: one workload,
// one result as a JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Virtual length of the untimed check runs and of every run under -smoke,
// as a share of the measured length. 0.4 is the shortest check that still
// rebuilds the storage index once after warm-up.
const (
	checkFrac = 0.4
	smokeFrac = 1.0 / 20
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (the BENCHMARK.json contract)")
		seed         = flag.Int64("seed", 1, "seed the workload inputs are made from")
		seconds      = flag.Float64("seconds", 10, "wall time to spend in the measured section of each run")
		traceMode    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		reps         = flag.Int("reps", 3, "repetitions of each workload's measured run")
		smoke        = flag.Bool("smoke", false, "every workload at 1/20 virtual length, one repetition, all checks on")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir       = flag.String("out", "out", "directory for result and span files")
		child        = flag.String("child", "", "internal: run one job in this process")
	)
	flag.Parse()
	// All load comes from this one process tree, at most four cores wide.
	if os.Getenv("GOMAXPROCS") == "" && runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	switch {
	case *child != "":
		var j job
		if err := json.Unmarshal([]byte(*child), &j); err != nil {
			fatal(err)
		}
		r, err := runJob(j)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		outside, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if outside {
			os.Exit(1)
		}
	case *workloadName != "":
		if _, err := newSpec(*workloadName, *seed, 1); err != nil {
			fatal(err)
		}
		b := bench{seed: *seed, seconds: *seconds, frac: 1, checkFrac: checkFrac, outDir: *outDir}
		line, err := b.contractRun(*workloadName, *traceMode == 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	default:
		b := bench{seed: *seed, seconds: *seconds, frac: 1, checkFrac: checkFrac, outDir: *outDir, reps: *reps}
		if *smoke {
			b.smoke, b.frac, b.checkFrac, b.seconds, b.reps = true, smokeFrac, smokeFrac, 0, 1
		}
		res, err := b.fullRun()
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		path := filepath.Join(*outDir, fmt.Sprintf("result-%d.json", *seed))
		if err := res.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", path)
		if res.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// bench holds the settings of one invocation.
type bench struct {
	seed      int64
	seconds   float64
	frac      float64
	checkFrac float64
	reps      int
	smoke     bool
	outDir    string
}

func (b bench) job(kind, workload string, frac float64) job {
	return job{Kind: kind, Workload: workload, Seed: b.seed, Seconds: b.seconds,
		Frac: frac, Smoke: b.smoke, OutDir: b.outDir}
}

// sample is the end-to-end metrics of one repetition of one workload.
type sample struct {
	values map[string]float64
	digest string
	ops    int
	failed int
	notes  []string
}

func (s *sample) absorb(r jobResult) {
	s.ops += r.Ops
	s.failed += r.Failed
	s.notes = append(s.notes, r.Notes...)
}

// measureOnce sets the workload up several times in one child, then runs
// the timed units in another, and derives the end-to-end metrics.
func (b bench) measureOnce(workload string) (sample, error) {
	s := sample{values: make(map[string]float64)}
	su, err := spawn(b.job(jobSetup, workload, b.frac))
	if err != nil {
		return s, err
	}
	s.absorb(su)
	m, err := spawn(b.job(jobMeasure, workload, b.frac))
	if err != nil {
		return s, err
	}
	s.absorb(m)
	s.digest = m.Digest

	var rates, allocs []float64
	for _, u := range m.Units {
		rates = append(rates, ratio(u.VirtualS, u.WallS))
		allocs = append(allocs, ratio(float64(u.Mallocs), u.VirtualS))
	}
	s.values["sim_rate"] = median(rates)
	s.values["setup_s"] = median(su.SetupS)
	s.values["peak_rss_mb"] = m.PeakRSSMB
	s.values["allocs_per_vs"] = median(allocs)
	s.values["model_msgs_per_reading"] = ratio(m.Model.Msgs, m.Model.Readings)
	return s, nil
}

// contractRun is one run under the BENCHMARK.json contract: the result is
// the JSON object to print last.
func (b bench) contractRun(workload string, trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}

	var notes []string
	if trace {
		r, err := spawn(b.job(jobTraced, workload, b.frac))
		if err != nil {
			return "", err
		}
		out.Attempted, out.Failed, notes = r.Ops, r.Failed, r.Notes
		for _, m := range perLayer {
			out.Metrics[m.Name] = value{r.Layers[m.Name], m.Unit}
		}
	} else {
		s, err := b.measureOnce(workload)
		if err != nil {
			return "", err
		}
		c, err := spawn(b.job(jobCheck, workload, b.checkFrac))
		if err != nil {
			return "", err
		}
		s.absorb(c)
		out.Attempted, out.Failed, notes = s.ops, s.failed, s.notes
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{s.values[m.Name], m.Unit}
		}
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", n)
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	return string(line), err
}

// environment records where numbers were taken, so that results from
// different machines are never compared silently.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Noisy      bool    `json:"noisy"` // load average above nproc/2 at start
}

func readEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &e.LoadAvg1)
	}
	e.Noisy = e.LoadAvg1 > float64(e.NProc)/2
	return e
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	WallS     float64            `json:"wall_s"`
	Digest    string             `json:"stats_digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// result is the file a full run writes and -compare reads.
type result struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"repetitions"`
	Smoke     bool             `json:"smoke,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Workloads []workloadResult `json:"workloads"`
}

// fullRun measures every workload b.reps times, checks it and traces it
// once.
func (b bench) fullRun() (result, error) {
	res := result{Env: readEnvironment(), Seed: b.seed, Reps: b.reps, Smoke: b.smoke}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
		start := wallNow()
		wr := workloadResult{Name: w.name, Why: w.why, EndToEnd: make(map[string]summary)}
		values := make(map[string][]float64)
		add := func(s sample) {
			wr.Attempted += s.ops
			wr.Failed += s.failed
			wr.Notes = append(wr.Notes, s.notes...)
		}
		for i := 0; i < b.reps; i++ {
			s, err := b.measureOnce(w.name)
			if err != nil {
				return res, err
			}
			add(s)
			for k, v := range s.values {
				values[k] = append(values[k], v)
			}
			if i == 0 {
				wr.Digest = s.digest
			} else if s.digest != wr.Digest {
				add(sample{failed: s.ops, notes: []string{fmt.Sprintf("repetition %d: digest %s, repetition 0: %s", i, s.digest, wr.Digest)}})
			}
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = summarize(m.Unit, values[m.Name])
		}
		var side sample
		c, err := spawn(b.job(jobCheck, w.name, b.checkFrac))
		if err != nil {
			return res, err
		}
		side.absorb(c)
		t, err := spawn(b.job(jobTraced, w.name, b.frac))
		if err != nil {
			return res, err
		}
		side.absorb(t)
		wr.PerLayer = t.Layers
		// "" is a digest the traced run cannot speak for: it traces only
		// the first of several configurations.
		if t.Digest != "" && t.Digest != wr.Digest {
			side.failed += t.Ops
			side.notes = append(side.notes, fmt.Sprintf("traced run digest %s, measured %s", t.Digest, wr.Digest))
		}
		add(side)
		wr.WallS = wallSince(start).Seconds()
		res.Workloads = append(res.Workloads, wr)
	}

	for _, w := range res.Workloads {
		res.Attempted += w.Attempted
		res.Failed += w.Failed
	}
	return res, nil
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r result) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// paperBaseOverScoop is Figure 3's BASE / SCOOP message ratio on REAL.
const paperBaseOverScoop = 4.0

func (r result) print(w *os.File) {
	e := r.Env
	fmt.Fprintf(w, "scoop benchmark  seed %d  repetitions %d  commit %s\n", r.Seed, r.Reps, e.Commit)
	fmt.Fprintf(w, "%s  nproc %d  GOMAXPROCS %d  %s  load %.2f", e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, e.LoadAvg1)
	if e.Noisy {
		fmt.Fprint(w, "  NOISY: load average above nproc/2, timings are suspect")
	}
	fmt.Fprintln(w, "\nclosed loop, one process at a time; timings are host wall time, model_* are simulated-time statistics")
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  (%.1f s, stats_digest %s)\n   %s\n", wr.Name, wr.WallS, wr.Digest, wr.Why)
		fmt.Fprintf(w, "  %-26s %14s %14s %14s  %3s  %-10s %s\n", "end-to-end", "median", "q1", "q3", "n", "unit", "bound")
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-26s %14.6g %14.6g %14.6g  %3d  %-10s %.0f%% %s\n",
				m.Name, s.Median, s.Q1, s.Q3, s.N, m.Unit, 100*m.Bound, m.Better)
		}
		fmt.Fprintf(w, "  %-26s %14.6g %44s  %-10s 0 lower (%d of %d ops)\n",
			"failed_share", ratio(float64(wr.Failed), float64(wr.Attempted)), "", "ratio", wr.Failed, wr.Attempted)
		for _, n := range wr.Notes {
			fmt.Fprintf(w, "  FAILED: %s\n", n)
		}
		fmt.Fprintf(w, "  per-layer (traced run; 0 = does not apply to this workload)\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "    %-32s %16.6g  %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
		}
		if top := largest(layerTimes(wr.PerLayer)); top != "" {
			fmt.Fprintf(w, "  largest per-layer time: %s\n", top)
		}
		if wr.Name == wFig3 {
			fmt.Fprintf(w, "  model.base_over_scoop %.2f against the paper's ~%.0f (Figure 3): the model is NOT validated against the paper\n",
				wr.PerLayer["model.base_over_scoop"], paperBaseOverScoop)
		}
	}
	fmt.Fprintf(w, "\nfailed_share overall: %d of %d ops\n", r.Failed, r.Attempted)
}

// largest names the key with the greatest value, "" when all are 0.
func largest(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := ""
	for _, k := range keys {
		if m[k] > 0 && (best == "" || m[k] > m[best]) {
			best = k
		}
	}
	return best
}
