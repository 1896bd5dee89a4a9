package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric when two result files are
// held against each other (a = before, b = after).
const (
	within     = "within"     // b's median is no worse than a's by more than the bound
	outside    = "outside"    // it is worse by more than the bound
	unresolved = "unresolved" // the runs spread wider than the bound: no verdict
)

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worsening is the share of a's median by which b's median is worse, in
// the metric's own direction; negative when b is better.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge gives the verdict for one metric. Simulated-time statistics of one
// seed must be identical; a timing is unresolved when either side's
// inter-quartile range is wider than the bound, unless every run of b
// reads better than every run of a.
func judge(m metricDef, a, b summary, sameSeed bool) string {
	if m.Exact && sameSeed {
		if a.Median == b.Median {
			return within
		}
		return outside
	}
	spread := func(s summary) float64 { return ratio(s.Q3-s.Q1, s.Median) }
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a.Values, b.Values) {
			return within
		}
		return unresolved
	}
	if worsening(m, a.Median, b.Median) > m.Bound {
		return outside
	}
	return within
}

func allBetter(m metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// both inter-quartile ranges, the bound and the verdict, and reports
// whether anything fell outside.
func compareFiles(w io.Writer, pathA, pathB string) (anyOutside bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	sameSeed := a.Seed == b.Seed && a.Smoke == b.Smoke
	fmt.Fprintf(w, "a: %s  seed %d  commit %s  %s  nproc %d\n", pathA, a.Seed, a.Env.Commit, a.Env.CPUModel, a.Env.NProc)
	fmt.Fprintf(w, "b: %s  seed %d  commit %s  %s  nproc %d\n", pathB, b.Seed, b.Env.Commit, b.Env.CPUModel, b.Env.NProc)
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Fprintln(w, "WARNING: the two results come from different machines or settings; timings do not compare")
	}
	if a.Env.Noisy || b.Env.Noisy {
		fmt.Fprintln(w, "WARNING: at least one result was taken on a loaded machine")
	}
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(w, "\n== %s: missing from b\n", wa.Name)
			anyOutside = true
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", wa.Name)
		fmt.Fprintf(w, "  %-24s %13s %13s %11s %11s %6s  %s\n", "metric", "median a", "median b", "iqr a", "iqr b", "bound", "verdict")
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := judge(m, sa, sb, sameSeed)
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.Exact && sameSeed {
				bound = "exact"
			}
			fmt.Fprintf(w, "  %-24s %13.6g %13.6g %11.4g %11.4g %6s  %s\n",
				m.Name, sa.Median, sb.Median, sa.Q3-sa.Q1, sb.Q3-sb.Q1, bound, v)
			anyOutside = anyOutside || v == outside
		}
		if sameSeed {
			v := within
			if wa.Digest != wb.Digest {
				v, anyOutside = outside, true
			}
			fmt.Fprintf(w, "  %-24s %13s %13s %30s  %s\n", "stats_digest", wa.Digest, wb.Digest, "exact", v)
		}
		if wb.Failed > 0 {
			fmt.Fprintf(w, "  failed ops in b: %d of %d\n", wb.Failed, wb.Attempted)
			anyOutside = true
		}
	}
	return anyOutside, nil
}
