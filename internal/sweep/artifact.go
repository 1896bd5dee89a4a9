package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
)

// WriteFile persists the report as an indented JSON artifact
// (conventionally sweep-<name>.json). For a fixed base seed the bytes
// are identical across runs and parallelism levels, so artifacts can
// be committed and diffed.
func WriteFile(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report previously written by WriteFile.
func ReadFile(path string) (r Report, err error) {
	err = readJSON(path, &r)
	return r, err
}

// ReadGrid loads a grid file (see Grid for the format). It only
// decodes: an unknown key, a value of the wrong type, a bad duration
// or trailing data is an error here, while out-of-range and misspelt
// axis values are rejected by Run, which names the offending cell.
func ReadGrid(path string) (g Grid, err error) {
	err = readJSON(path, &g)
	return g, err
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := decode(data, v); err != nil {
		return fmt.Errorf("sweep: parsing %s: %w", path, err)
	}
	return nil
}

// decode is strict: an input file with a key nothing reads is a typo.
func decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// Diff explains why two reports do not serialise to the same bytes: one
// line per differing report header, per cell key present on one side
// only, and per differing serialised field of a cell present on both,
// each with both values. Cells are joined on Key and walked in index
// order (want's, then got's for the cells only got has), fields in
// artifact order. Equal reports give nil.
func Diff(got, want Report) []string {
	var out []string
	if got.Name != want.Name {
		out = append(out, fmt.Sprintf("name: got %q, want %q", got.Name, want.Name))
	}
	if got.Seed != want.Seed {
		out = append(out, fmt.Sprintf("seed: got %d, want %d", got.Seed, want.Seed))
	}
	fresh := make(map[string]CellResult, len(got.Cells))
	for _, c := range got.Cells {
		fresh[c.Key()] = c
	}
	for _, w := range want.Cells {
		key := w.Key()
		g, ok := fresh[key]
		if !ok {
			out = append(out, fmt.Sprintf("cell %d %s: want it, got no such cell", w.Index, key))
			continue
		}
		delete(fresh, key)
		artifactFields(reflect.ValueOf(g), reflect.ValueOf(w), func(name string, gv, wv any) {
			if gv != wv {
				out = append(out, fmt.Sprintf("cell %d %s: %s: got %v, want %v", w.Index, key, name, gv, wv))
			}
		})
	}
	for _, g := range got.Cells {
		key := g.Key()
		if _, extra := fresh[key]; extra {
			out = append(out, fmt.Sprintf("cell %d %s: got it, want no such cell", g.Index, key))
		}
	}
	return out
}

// artifactFields calls f with the JSON key and both values of every
// field of the two like-typed structs that reaches the artifact, in
// encoding order: embedded structs flattened in place, `json:"-"`
// fields (wall-clock probes) skipped.
func artifactFields(g, w reflect.Value, f func(name string, g, w any)) {
	for i := 0; i < w.NumField(); i++ {
		sf := w.Type().Field(i)
		if sf.Anonymous {
			artifactFields(g.Field(i), w.Field(i), f)
		} else if name, _, _ := strings.Cut(sf.Tag.Get("json"), ","); name != "-" {
			f(name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}
