package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoop/internal/netsim"
)

// badGrids are files ReadGrid itself must refuse; each error carries
// the offending key or value.
var badGrids = []struct{ name, data, want string }{
	{"unknown-key", `{"name": "x", "polices": ["scoop"]}`, `"polices"`},
	{"regions-is-not-a-key", `{"regions": 4}`, `"regions"`},
	{"bad-duration", `{"duration": "8 minutes"}`, `"8 minutes"`},
	{"negative-duration", `{"warmup": "-2m"}`, `"-2m"`},
	{"sub-millisecond", `{"queryInterval": "1500us"}`, `"1500us"`},
	{"duration-as-number", `{"duration": 480000}`, "Grid.Duration"},
	{"wrong-type", `{"sizes": ["sixteen"]}`, "Grid.Sizes"},
	{"truncated", `{"name": "x", "sizes": [16`, "unexpected EOF"},
	{"trailing", `{"name": "x"} {"name": "y"}`, "trailing data"},
}

func TestReadGridRejects(t *testing.T) {
	for _, tc := range badGrids {
		path := filepath.Join(t.TempDir(), tc.name+".grid.json")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadGrid(path)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %s and the file", tc.name, err, tc.want)
		}
	}
	if _, err := ReadGrid(filepath.Join(t.TempDir(), "absent.grid.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// committedGrids lists every grid file the repo ships, under testdata/
// here and at the root.
func committedGrids(tb testing.TB) []string {
	var files []string
	for _, pattern := range []string{"testdata/*.grid.json", "../../testdata/*.grid.json"} {
		found, err := filepath.Glob(pattern)
		if err != nil || len(found) < 3 {
			tb.Fatalf("%s: %d files, %v", pattern, len(found), err)
		}
		files = append(files, found...)
	}
	return files
}

// Every committed grid file reads and plans, including the ones no test
// runs and no artifact sits beside: a stale key or a policy that no
// longer exists fails here, not in the hands of the next person to run
// the file.
func TestCommittedGridsPlan(t *testing.T) {
	for _, file := range committedGrids(t) {
		g, err := ReadGrid(file)
		if err != nil {
			t.Error(err)
			continue
		}
		if _, _, err := g.plan(); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}

// FuzzReadGrid: decoding and planning outside input never panics, and
// a grid that passes both expands to at least one cell whose every
// configuration — churn script attached — validates. The seed corpus
// (the committed grid files, badGrids, and decodable grids Run must
// refuse) runs under plain `go test`.
func FuzzReadGrid(f *testing.F) {
	for _, file := range committedGrids(f) {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range badGrids {
		f.Add([]byte(tc.data))
	}
	f.Add([]byte(`{"sizes": [1100], "churnRates": [1.5], "faults": ["earthquake"]}`))
	f.Add([]byte(`{"duration": "2m", "warmup": "2m", "policies": ["hash"], "driftRates": [-0.5]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grid
		if decode(data, &g) != nil {
			return
		}
		// Keep the fuzzer on parsing and validation, not on expanding
		// or scripting an astronomically large grid.
		product := 1.0
		for _, n := range []int{len(g.Policies), len(g.Topologies), len(g.Sizes),
			len(g.LossRates), len(g.ChurnRates), len(g.DriftRates), len(g.Reindex),
			len(g.QueryMixes), len(g.Faults), len(g.Retry), len(g.Sources)} {
			product *= float64(max(n, 1))
		}
		if product > 1e4 || g.Duration > 600*netsim.Minute {
			t.Skip()
		}
		cells, cfgs, err := g.plan()
		if err != nil {
			return
		}
		if len(cells) == 0 || len(cfgs) != len(cells) {
			t.Fatalf("accepted grid plans %d cells, %d configs", len(cells), len(cfgs))
		}
		for i, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("cell %s planned with an invalid exp.Config: %v", cells[i].Key(), err)
			}
		}
	})
}
