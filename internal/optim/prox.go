// Package optim implements the local (device-side) solvers of FedProxVR:
// the proximal operator of the consensus penalty h_s, the three stochastic
// gradient estimators of Algorithm 1 — plain SGD, SVRG (8b) and SARAH (8a)
// — and the inner-loop Solver that combines them into the fixed-step
// proximal update w^(t+1) = prox_{ηh_s}(w^(t) − η v^(t)) and reports the
// last iterate or, as in Algorithm 1's line 10, a uniformly random one.
package optim

import "fedproxvr/internal/tensor"

// Prox is the proximal operator of η·h_s where
// h_s(w) = (μ/2)‖w − anchor‖² (eq. 7). Its closed form (eq. 10) is
//
//	prox_{ηh_s}(x) = (x + ημ·anchor) / (1 + ημ).
//
// With μ = 0 it degenerates to the identity, so the same code path serves
// plain (FedAvg-style) local SGD.
type Prox struct {
	Mu     float64
	Anchor []float64
}

// Step stores prox_{ηh_s}(w − ηv) into dst: one proximal gradient step
// (Algorithm 1, lines 4 and 8) in one pass, x = w + (−η)·v and then
// (x + ημ·anchor)·(1/(1+ημ)), each product rounded on its own
// (tensor.ProxStep). dst may alias w or v. With μ = 0 the anchor's values
// are not read.
func (p Prox) Step(dst, w, v []float64, eta float64) {
	if len(w) != len(dst) || len(v) != len(dst) || len(p.Anchor) != len(dst) {
		panic("optim: Prox dimension mismatch")
	}
	tensor.ProxStep(p.at(eta), dst, w, v, p.Anchor)
}

// at returns eq. (10)'s coefficients at step size η: −η, ημ and 1/(1+ημ).
func (p Prox) at(eta float64) tensor.StepCoef {
	em := eta * p.Mu
	return tensor.StepCoef{Neg: -eta, Em: em, Inv: 1 / (1 + em), Id: p.Mu == 0}
}
