package main

import (
	"math"
	"os"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{7}, 0.75, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

// TestSummarize checks the comparison arithmetic on hand-worked pairs.
func TestSummarize(t *testing.T) {
	// Base 10, 12, 11, 13 (median 11.5, quartiles 10.75 and 12.25, IQR
	// 1.5); change 9, 12, 8, 10 (median 9.5). Lower is better: pairs 0, 2
	// and 3 are won, pair 1 ties. The gap 2 exceeds the IQR.
	base := []float64{10, 12, 11, 13}
	head := []float64{9, 12, 8, 10}
	s := summarize("lower", base, head)
	want := summary{BaseMedian: 11.5, BaseIQR: 1.5, HeadMedian: 9.5, DeltaPct: 100 * -2 / 11.5, Won: 3, Pairs: 4, Clear: true}
	if math.Abs(s.DeltaPct-want.DeltaPct) > 1e-12 {
		t.Fatalf("DeltaPct %v, want %v", s.DeltaPct, want.DeltaPct)
	}
	s.DeltaPct = want.DeltaPct
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	// Higher is better: no pair is won (pair 1's tie is not a win), and
	// the gap is as clear.
	s = summarize("higher", base, head)
	if s.Won != 0 || !s.Clear {
		t.Fatalf("higher: won %d clear %v, want 0 and true", s.Won, s.Clear)
	}
	// A gap inside the IQR is not clear; pairs 1 and 3 are won.
	s = summarize("lower", base, []float64{11, 11, 11, 11})
	if s.Clear || s.Won != 2 {
		t.Fatalf("inside the IQR: %+v", s)
	}
}

// TestReadSpec reads the repository's own BENCHMARK.json: benchpair takes
// each leaf run's length from it, so a spec without run_seconds is an
// error rather than a run of some other length.
func TestReadSpec(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || len(spec.EndToEnd) == 0 {
		t.Fatalf("spec %+v: want run_seconds and end-to-end metrics", spec)
	}
	path := t.TempDir() + "/BENCHMARK.json"
	if err := os.WriteFile(path, []byte(`{"end_to_end": [{"name": "round_ms_p50"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSpec(path); err == nil {
		t.Fatal("a spec without run_seconds was accepted")
	}
}
