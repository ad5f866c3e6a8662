package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSchemaMatchesBenchmarkJSON fails when the names, units, directions
// or bounds in the code drift from BENCHMARK.json, or leave the limits the
// driver enforces.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\njson %+v\ncode %+v", f.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\njson %+v\ncode %+v", f.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\njson %+v\ncode %+v", f.PerLayer, perLayerDefs)
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not of the allowed form", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndDefs {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower better")
	}
}

// TestTinyRunsEmitEveryMetric runs every workload at -scale tiny, untraced
// and traced, and checks that each run passes its correctness checks and
// reports exactly the listed metrics, each finite and with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			res, verr, err := leaf(w.Name, 2020, 0, traced, "tiny")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if verr != nil || !res.Correct {
				t.Errorf("%s traced=%v: check failed: %v", w.Name, traced, verr)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is missing", w.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, d.Name, v.Value)
				case !traced && v.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, d.Name)
				}
			}
		}
	}
}
