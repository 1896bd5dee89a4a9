package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is a pivot of a report, printed by scoopsweep after a run: one
// line per distinct combination of the Rows fields, one column group
// per distinct value of the Column field (a single group when it is
// empty), and in each group the Values metrics. Rows and Column are
// Cell fields and Values the other CellResult fields, all named by
// their artifact keys; rows and column groups appear in cell order.
type Table struct {
	Title  string   `json:"title"`
	Rows   []string `json:"rows"`
	Column string   `json:"column,omitempty"`
	Values []string `json:"values"`
}

// check refuses a table naming a field or metric the artifact does not
// have, or on which two of the cells share a row and a column group,
// so that every printed value is one cell's.
func (t Table) check(cells []Cell) error {
	fields := t.Rows
	if t.Column != "" {
		fields = append(slices.Clone(fields), t.Column)
	}
	for _, name := range fields {
		if _, ok := lookup(cellFields, name); !ok {
			return fmt.Errorf("sweep: table %q: unknown cell field %q", t.Title, name)
		}
	}
	if len(t.Values) == 0 {
		return fmt.Errorf("sweep: table %q has no values", t.Title)
	}
	for _, name := range t.Values {
		_, cell := lookup(cellFields, name)
		if _, ok := lookup(resultFields, name); cell || !ok {
			return fmt.Errorf("sweep: table %q: unknown metric %q", t.Title, name)
		}
	}
	seen := make(map[[2]string]Cell, len(cells))
	for _, c := range cells {
		k := t.keys(CellResult{Cell: c})
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("sweep: table %q: cells %s and %s share a row and column", t.Title, prev.Key(), c.Key())
		}
		seen[k] = c
	}
	return nil
}

// keys is a cell's row and column group, each field as the artifact
// spells it, strings unquoted.
func (t Table) keys(c CellResult) [2]string {
	v := reflect.ValueOf(c)
	text := func(names ...string) string {
		var out []string
		for _, name := range names {
			f, _ := lookup(resultFields, name)
			// Plain strings, numbers and times: Marshal cannot fail.
			b, _ := json.Marshal(v.FieldByIndex(f.index).Interface())
			s, err := strconv.Unquote(string(b))
			if err != nil {
				s = string(b)
			}
			out = append(out, s)
		}
		return strings.Join(out, "\t")
	}
	if t.Column == "" {
		return [2]string{text(t.Rows...), ""}
	}
	return [2]string{text(t.Rows...), text(t.Column)}
}

// Render prints the pivot of r with aligned columns: the title, a
// header, and one line per row. A row and column group that no cell
// fills print "-".
func (t Table) Render(r Report) string {
	var rows, groups []string
	at := make(map[[2]string]CellResult)
	for _, c := range r.Cells {
		k := t.keys(c)
		if !slices.Contains(rows, k[0]) {
			rows = append(rows, k[0])
		}
		if !slices.Contains(groups, k[1]) {
			groups = append(groups, k[1])
		}
		at[k] = c
	}
	header := slices.Clone(t.Rows)
	for _, g := range groups {
		for _, m := range t.Values {
			switch {
			case t.Column == "":
				header = append(header, m)
			case len(t.Values) == 1:
				header = append(header, g)
			default:
				header = append(header, g+" "+m)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, row := range rows {
		line := []string{row}
		for _, g := range groups {
			c, ok := at[[2]string{row, g}]
			for _, m := range t.Values {
				if !ok {
					line = append(line, "-")
				} else {
					line = append(line, metricText(c, m))
				}
			}
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	tw.Flush()
	return sb.String()
}

// metricText prints a metric whole from 100 up and to three
// significant digits below.
func metricText(c CellResult, name string) string {
	f, _ := lookup(resultFields, name)
	x := reflect.ValueOf(c).FieldByIndex(f.index)
	switch {
	case x.Kind() != reflect.Float64:
		return fmt.Sprint(x.Interface())
	case math.Abs(x.Float()) >= 100:
		return strconv.FormatFloat(x.Float(), 'f', 0, 64)
	}
	return strconv.FormatFloat(x.Float(), 'g', 3, 64)
}
