package telemetry

import (
	"math"
	"testing"
)

// sumAgg is a trivial aggregator that records it was called and writes the
// coordinate-wise mean of the locals into w.
type sumAgg struct {
	calls int
	mutig func(w []float64)
}

func (a *sumAgg) Aggregate(w []float64, selected []int, locals [][]float64) error {
	a.calls++
	for j := range w {
		var s float64
		for _, l := range locals {
			s += l[j]
		}
		w[j] = s / float64(len(locals))
	}
	if a.mutig != nil {
		a.mutig(w)
	}
	return nil
}

func TestProbeDiagnostics(t *testing.T) {
	h := testHub(Options{})
	js := h.Job("j1")
	inner := &sumAgg{}
	p := NewProbe(inner, js)

	w := []float64{1, 1}
	locals := [][]float64{
		{2, 1}, // Δ = (1, 0), ‖Δ‖ = 1
		{1, 4}, // Δ = (0, 3), ‖Δ‖ = 3
	}
	if err := p.Aggregate(w, []int{0, 1}, locals); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatal("inner aggregator not called")
	}
	// Inner mean applied: w = ((2+1)/2, (1+4)/2) = (1.5, 2.5).
	if w[0] != 1.5 || w[1] != 2.5 {
		t.Fatalf("aggregation result changed by probe: %v", w)
	}
	if !js.hasDiag {
		t.Fatal("probe did not note diagnostics")
	}
	d := js.pendingDiag
	// DriftMean = (1+3)/2 = 2, DriftMax = 3.
	if d.DriftMean != 2 || d.DriftMax != 3 {
		t.Fatalf("drift: %+v", d)
	}
	// Δ̄ = (0.5, 1.5): ‖Δ̄‖² = 2.5, mean ‖Δ_n‖² = (1+9)/2 = 5 → var 2.5.
	if math.Abs(d.UpdateVar-2.5) > 1e-12 {
		t.Fatalf("UpdateVar = %v, want 2.5", d.UpdateVar)
	}
	if math.Abs(d.UpdateNorm-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("UpdateNorm = %v, want √2.5", d.UpdateNorm)
	}
	if d.NonFinite {
		t.Fatal("finite model flagged non-finite")
	}
}

func TestProbeDetectsNonFinite(t *testing.T) {
	h := testHub(Options{})
	js := h.Job("j1")
	inner := &sumAgg{mutig: func(w []float64) { w[1] = math.NaN() }}
	p := NewProbe(inner, js)
	w := []float64{0, 0}
	if err := p.Aggregate(w, []int{0}, [][]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if !js.pendingDiag.NonFinite {
		t.Fatal("NaN in aggregated model not detected")
	}
}

func TestProbeEmptyRoundPassesThrough(t *testing.T) {
	h := testHub(Options{})
	js := h.Job("j1")
	inner := &sumAgg{}
	p := NewProbe(inner, js)
	// Zero locals: delegate without noting diagnostics (k==0 division-free).
	_ = p.Aggregate([]float64{1}, nil, nil)
	if js.hasDiag {
		t.Fatal("empty round must not note diagnostics")
	}
	if p.inner != inner {
		t.Fatal("the probe must wrap the given rule")
	}
}
