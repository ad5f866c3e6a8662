package fedproxvr

import (
	"fmt"
	"math"
	"math/rand"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/theory"
)

// The theory bridge: the paper's analysis re-exported, turned into runnable
// configurations, and its constants instantiated on a dataset.
type (
	// Problem carries the constants of Assumption 1 for theory calculators.
	Problem = theory.Problem
	// Optimum is a solution of the Section 4.3 training-time problem.
	Optimum = theory.Optimum
)

// FromTheory derives a runnable FedProxVR configuration from the paper's
// analysis: given the Assumption 1 constants, a target local accuracy θ
// and a penalty μ, it solves eq. (15) (or its SVRG analogue) for the
// smallest feasible β and sets τ to the corresponding Lemma 1 upper bound
// (eq. 16) — the schedule Remark 1(3) recommends.
func FromTheory(est Estimator, prob Problem, theta, mu float64, batch, rounds int) (Config, error) {
	if err := prob.Validate(); err != nil {
		return Config{}, err
	}
	const betaMax = 1e9
	var beta float64
	var tau int
	switch est {
	case SARAH:
		b, ok := prob.BetaMinSARAH(theta, mu, betaMax)
		if !ok {
			return Config{}, fmt.Errorf("fedproxvr: no feasible SARAH β for θ=%v μ=%v", theta, mu)
		}
		beta, tau = b, theory.TauFromBetaMin(b)
	case SVRG:
		b, ok := prob.BetaMinSVRG(theta, mu, betaMax)
		if !ok {
			return Config{}, fmt.Errorf("fedproxvr: no feasible SVRG β for θ=%v μ=%v", theta, mu)
		}
		beta, tau = b, theory.MaxTauSVRG(b)
	default:
		return Config{}, fmt.Errorf("fedproxvr: FromTheory supports SVRG and SARAH, got %v", est)
	}
	if tau < 1 {
		return Config{}, fmt.Errorf("fedproxvr: derived τ=%d is not runnable", tau)
	}
	cfg := FedProxVR(est, beta, prob.L, mu, tau, batch, rounds)
	cfg.Name = fmt.Sprintf("%s [theory: θ=%.3g β=%.3g τ=%d]", cfg.Name, theta, beta, tau)
	return cfg, nil
}

// EstimateSigmaBar2 measures the σ̄²-divergence of Assumption 1 (eq. 5)
// empirically: at each probe point w it computes
//
//	σ_n(w) = ‖∇F_n(w) − ∇F̄(w)‖ / ‖∇F̄(w)‖
//
// and returns the maximum over probes of σ̄²(w) = Σ_n (D_n/D) σ_n(w)² —
// a lower bound for the true assumption constant, usable to instantiate
// the Theorem 1 calculators on a concrete dataset (the paper estimates
// its constants "by sampling the real-world dataset").
//
// Probes are drawn as N(0, scale²) vectors from rng, plus the origin.
func EstimateSigmaBar2(m Model, p *Partition, numProbes int, scale float64, rng *rand.Rand) float64 {
	dim := m.Dim()
	weights := p.Weights()
	gn := make([]float64, dim)
	gbar := make([]float64, dim)
	grads := make([][]float64, len(p.Clients))
	for i := range grads {
		grads[i] = make([]float64, dim)
	}
	probe := make([]float64, dim)

	best := 0.0
	for k := 0; k <= numProbes; k++ {
		if k == 0 {
			mathx.Zero(probe)
		} else {
			for i := range probe {
				probe[i] = scale * rng.NormFloat64()
			}
		}
		mathx.Zero(gbar)
		for n, shard := range p.Clients {
			m.Grad(gn, probe, shard, nil)
			copy(grads[n], gn)
			mathx.Axpy(weights[n], gn, gbar)
		}
		denom := mathx.Nrm2Sq(gbar)
		if denom == 0 {
			continue
		}
		var s2 float64
		for n := range p.Clients {
			mathx.Sub(gn, grads[n], gbar)
			s2 += weights[n] * mathx.Nrm2Sq(gn) / denom
		}
		if s2 > best {
			best = s2
		}
	}
	return best
}

// EstimateDelta estimates the initial objective gap Δ(w̄⁰) of Theorem 1 as
// F̄(w⁰) − min over a short full-gradient descent trajectory — a cheap
// upper-bias estimate of F̄(w⁰) − F̄(w*) usable for Corollary 1's round
// count.
func EstimateDelta(m Model, p *Partition, w0 []float64, descentSteps int, eta float64) float64 {
	weights := p.Weights()
	loss := func(w []float64) float64 {
		var l float64
		for i, shard := range p.Clients {
			l += weights[i] * m.Loss(w, shard, nil)
		}
		return l
	}
	w := mathx.Clone(w0)
	g := make([]float64, len(w))
	gShard := make([]float64, len(w))
	best := loss(w)
	first := best
	for t := 0; t < descentSteps; t++ {
		mathx.Zero(g)
		for i, shard := range p.Clients {
			m.Grad(gShard, w, shard, nil)
			mathx.Axpy(weights[i], gShard, g)
		}
		mathx.Axpy(-eta, g, w)
		best = math.Min(best, loss(w))
	}
	return first - best
}
