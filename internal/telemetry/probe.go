package telemetry

import (
	"math"

	"fedproxvr/internal/engine"
)

// Probe is a pass-through engine.Aggregator decorator that measures the
// round's client-drift diagnostics before delegating to the real rule, and
// scans the aggregated model for NaN/Inf after. It is read-only with
// respect to training — it never touches an RNG stream and never mutates w
// or the locals — so a run is bit-identical with or without it. Wrap it
// OUTSIDE any policy decorators (e.g. the jobs quorum gate) so a vetoed
// round is still measured as the cohort that reported.
type Probe struct {
	inner engine.Aggregator
	js    *JobStore
	delta []float64 // Δ̄ accumulator scratch, reused across rounds
}

// NewProbe decorates inner, reporting each round's diagnostics to js.
func NewProbe(inner engine.Aggregator, js *JobStore) *Probe {
	return &Probe{inner: inner, js: js}
}

// Attach wraps the engine's current aggregator with a probe feeding js and
// installs it.
func Attach(eng *engine.Engine, js *JobStore) {
	eng.SetAggregator(NewProbe(eng.Aggregator(), js))
}

// Aggregate implements engine.Aggregator. With k reporting locals it
// computes, against the pre-aggregation global w:
//
//	drift_n   = ‖w_n − w‖            → DriftMean, DriftMax
//	Δ̄        = (1/k) Σ (w_n − w)    → UpdateNorm = ‖Δ̄‖
//	UpdateVar = (1/k) Σ ‖Δ_n − Δ̄‖² = (1/k) Σ ‖Δ_n‖² − ‖Δ̄‖²
//
// UpdateVar is the empirical across-client variance of the local updates —
// the quantity the paper's variance-reduced estimators shrink — and
// DriftMean/DriftMax are the client dissimilarity FedProx's μ term
// penalizes. The diagnostics are stashed in the job store and merged into
// the round's sample when the engine flushes stats.
func (p *Probe) Aggregate(w []float64, selected []int, locals [][]float64) error {
	k := len(locals)
	if k > 0 && p.js != nil {
		dim := len(w)
		if cap(p.delta) < dim {
			p.delta = make([]float64, dim)
		}
		delta := p.delta[:dim]
		for j := range delta {
			delta[j] = 0
		}
		var sumNormSq, driftSum, driftMax float64
		for _, l := range locals {
			var normSq float64
			for j, wj := range w {
				d := l[j] - wj
				delta[j] += d
				normSq += d * d
			}
			sumNormSq += normSq
			drift := math.Sqrt(normSq)
			driftSum += drift
			if drift > driftMax {
				driftMax = drift
			}
		}
		var meanSq float64
		for j := range delta {
			delta[j] /= float64(k)
			meanSq += delta[j] * delta[j]
		}
		d := Diag{
			DriftMean:  driftSum / float64(k),
			DriftMax:   driftMax,
			UpdateVar:  sumNormSq/float64(k) - meanSq,
			UpdateNorm: math.Sqrt(meanSq),
		}
		if err := p.inner.Aggregate(w, selected, locals); err != nil {
			return err
		}
		for _, wj := range w {
			if math.IsNaN(wj) || math.IsInf(wj, 0) {
				d.NonFinite = true
				break
			}
		}
		p.js.noteDiag(d)
		return nil
	}
	return p.inner.Aggregate(w, selected, locals)
}
