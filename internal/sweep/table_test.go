package sweep

import (
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// The pivot printer's bytes: row and column keys as the artifact spells
// them, one header per column group and metric, "-" where no cell
// lands, metrics whole from 100 up and to three significant digits
// below.
func TestTableRender(t *testing.T) {
	cell := func(p policy.Name, source string, qi netsim.Time, msgs, hit float64) CellResult {
		return CellResult{Cell: Cell{Policy: p, Topology: "uniform", N: 63, QueryInterval: qi,
			Source: source}, Msgs: msgs, OwnerHit: hit, Retries: 3}
	}
	rep := Report{Cells: []CellResult{
		cell(policy.Scoop, "real", 5*netsim.Second, 1234.4, 0.8512),
		cell(policy.Base, "real", 5*netsim.Second, 52000.6, 0),
		cell(policy.Scoop, "unique", 45*netsim.Second, 99.5, 0.9),
	}}
	for _, tc := range []struct {
		name  string
		table Table
		want  string
	}{
		{"column-one-value", Table{Title: "Total messages", Rows: []string{"source"},
			Column: "policy", Values: []string{"msgs"}},
			"Total messages\n" +
				"source  scoop  base\n" +
				"real    1234   52001\n" +
				"unique  99.5   -\n"},
		{"column-two-values", Table{Title: "By interval", Rows: []string{"queryInterval"},
			Column: "policy", Values: []string{"msgs", "ownerHit"}},
			"By interval\n" +
				"queryInterval  scoop msgs  scoop ownerHit  base msgs  base ownerHit\n" +
				"5s             1234        0.851           52001      0\n" +
				"45s            99.5        0.9             -          -\n"},
		{"no-column", Table{Title: "Cells", Rows: []string{"policy", "source", "n"},
			Values: []string{"msgs", "retries"}},
			"Cells\n" +
				"policy  source  n   msgs   retries\n" +
				"scoop   real    63  1234   3\n" +
				"base    real    63  52001  3\n" +
				"scoop   unique  63  99.5   3\n"},
	} {
		if got := tc.table.Render(rep); got != tc.want {
			t.Errorf("%s: rendered\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
