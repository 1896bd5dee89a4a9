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
	{"driftRates-is-not-a-key", `{"driftRates": [0.3]}`, `"driftRates"`},
	{"axis-unknown-field", `{"axes": [{"field": "colour", "values": [1]}]}`, `"colour"`},
	{"axis-on-index", `{"axes": [{"field": "index", "values": [1]}]}`, `"index"`},
	{"axis-no-values", `{"axes": [{"field": "drift", "values": []}]}`, `"drift" has no values`},
	{"axis-wrong-type", `{"axes": [{"field": "retry", "values": ["yes"]}]}`, "Cell.retry"},
	{"axis-interval-as-number", `{"axes": [{"field": "queryInterval", "values": [5000]}]}`, "Cell.queryInterval"},
	{"axis-twice", `{"axes": [{"field": "drift", "values": [0]}, {"field": "drift", "values": [0.3]}]}`,
		`"drift" given twice`},
	{"named-axis-twice", `{"sizes": [16], "axes": [{"field": "n", "values": [24]}]}`, `"n" given twice`},
	{"table-unknown-field", `{"tables": [{"title": "t", "rows": ["colour"], "values": ["msgs"]}]}`, `"colour"`},
	{"table-unknown-column", `{"tables": [{"title": "t", "rows": ["n"], "column": "hue", "values": ["msgs"]}]}`, `"hue"`},
	{"table-unknown-metric", `{"tables": [{"title": "t", "rows": ["n"], "values": ["speed"]}]}`, `"speed"`},
	{"table-field-as-metric", `{"tables": [{"title": "t", "rows": ["n"], "values": ["policy"]}]}`, `metric "policy"`},
	{"table-no-values", `{"tables": [{"title": "t", "rows": ["n"]}]}`, "no values"},
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
	f.Add([]byte(`{"policies": ["scoop", "base"], "axes": [{"field": "queryInterval", "values": ["5s", "45s"]},
		{"field": "aggMix", "values": [0, 0.5]}], "sharedSeed": true,
		"tables": [{"title": "t", "rows": ["queryInterval"], "column": "policy", "values": ["msgs", "ownerHit"]}]}`))
	f.Add([]byte(`{"axes": [{"field": "policy", "values": ["local"]}, {"field": "nodePct", "values": [0.05, 2]}],
		"tables": [{"title": "t", "rows": ["nodePct"], "values": ["msgs"]}, {"title": "u", "rows": ["loss"], "values": ["msgs"]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grid
		if decode(data, &g) != nil {
			return
		}
		// Keep the fuzzer on parsing and validation, not on expanding
		// or scripting an astronomically large grid.
		axes, err := g.axes()
		if err != nil {
			return
		}
		product := 1.0
		for _, a := range axes {
			product *= float64(max(len(a.Values), 1))
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
