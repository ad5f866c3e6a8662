package optim

import (
	"testing"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
)

// TestClipLooseBoundIsExactNoOp: a ClipNorm far above any direction norm
// must leave the SARAH trajectory bit-identical to running without
// clipping. The historical Solver.clip rescaled s.v in place, so a binding
// clip contaminated the recursion state; a loose bound must be — and stay —
// an exact no-op.
func TestClipLooseBoundIsExactNoOp(t *testing.T) {
	d := 6
	wStar := []float64{2, -1, 0, 1, -2, 3}
	ds := quadDataset(120, d, wStar, 17)
	m := leastSquares{d}

	run := func(clip float64) []float64 {
		s, sc := NewSolver(m), new(Scratch)
		anchor := make([]float64, d)
		out := make([]float64, d)
		cfg := LocalConfig{Estimator: SARAH, Eta: 0.05, Tau: 6, Batch: 8, Mu: 0.2, ClipNorm: clip}
		s.Solve(sc, ds, anchor, out, cfg, randx.New(5))
		return out
	}
	plain, clipped := run(0), run(1e9)
	for i := range plain {
		if plain[i] != clipped[i] {
			t.Fatalf("loose ClipNorm changed the trajectory at %d: %v vs %v", i, clipped[i], plain[i])
		}
	}
	if mathx.Nrm2(plain) == 0 {
		t.Fatal("solve left the iterate at zero — the comparison is vacuous")
	}
}

// TestClipKeepsSARAHRecursionUnclipped replays two SARAH iterations by hand
// with a binding clip: the proximal step must use the clipped direction,
// while the v^(t−1) term of recursion (8a) must be the *unclipped* v. The
// replay mirrors the Solver's exact operation order (same mathx calls, same
// RNG stream), so the comparison is bitwise.
func TestClipKeepsSARAHRecursionUnclipped(t *testing.T) {
	const (
		dim      = 3
		eta      = 0.01
		clipNorm = 1.0
		batchSz  = 4
	)
	// Huge targets make the anchor gradient enormous, so the clip binds.
	wStar := []float64{1e4, -1e4, 1e4}
	ds := quadDataset(60, dim, wStar, 32)
	m := leastSquares{dim}

	cfg := LocalConfig{Estimator: SARAH, Eta: eta, Tau: 1, Batch: batchSz, ClipNorm: clipNorm}
	out := make([]float64, dim)
	anchor := make([]float64, dim)
	s := NewSolver(m)
	s.Solve(new(Scratch), ds, anchor, out, cfg, randx.New(7))

	// Hand replay.
	clip := func(v []float64) []float64 {
		n := mathx.Nrm2(v)
		if n <= clipNorm {
			return v
		}
		c := make([]float64, dim)
		copy(c, v)
		mathx.Scal(clipNorm/n, c)
		return c
	}
	w0 := make([]float64, dim)
	v0 := make([]float64, dim)
	m.Grad(v0, w0, ds, nil)
	if mathx.Nrm2(v0) <= clipNorm {
		t.Fatal("fixture broken: the clip does not bind")
	}
	w1 := make([]float64, dim)
	mathx.AddScaled(w1, w0, -eta, clip(v0)) // μ=0 ⇒ prox is the identity

	rng := randx.New(7) // Solve drew only the batch from its stream
	batch := make([]int, batchSz)
	randx.Batch(rng, batch, ds.N())
	g1 := make([]float64, dim)
	g2 := make([]float64, dim)
	m.Grad(g1, w1, ds, batch)
	m.Grad(g2, w0, ds, batch)

	// Correct recursion: v1 = g1 − g2 + v0 with v0 UNCLIPPED.
	v1 := make([]float64, dim)
	for i := range v1 {
		v1[i] = g1[i] - g2[i] + v0[i]
	}
	want := make([]float64, dim)
	mathx.AddScaled(want, w1, -eta, clip(v1))

	// The historical bug: recursion fed from the clipped direction.
	v1Bug := make([]float64, dim)
	c0 := clip(v0)
	for i := range v1Bug {
		v1Bug[i] = g1[i] - g2[i] + c0[i]
	}
	bug := make([]float64, dim)
	mathx.AddScaled(bug, w1, -eta, clip(v1Bug))

	same := true
	for i := range want {
		if want[i] != bug[i] {
			same = false
		}
	}
	if same {
		t.Fatal("fixture broken: clipped and unclipped recursions coincide")
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("solver output differs from unclipped-recursion replay at %d: %v vs %v (buggy replay gives %v)",
				i, out[i], want[i], bug[i])
		}
	}
}
