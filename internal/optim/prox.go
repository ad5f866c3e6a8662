// Package optim implements the local (device-side) solvers of FedProxVR:
// the proximal operator of the consensus penalty h_s, the three stochastic
// gradient estimators of Algorithm 1 — plain SGD, SVRG (8b) and SARAH (8a)
// — and the inner-loop Solver that combines them into the fixed-step
// proximal update w^(t+1) = prox_{ηh_s}(w^(t) − η v^(t)) and reports the
// last iterate or, as in Algorithm 1's line 10, a uniformly random one.
package optim

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

// Apply stores prox_{η h_s}(x) into dst. dst may alias x.
func (p Prox) Apply(dst, x []float64, eta float64) {
	if p.Mu == 0 {
		if &dst[0] != &x[0] {
			copy(dst, x)
		}
		return
	}
	if len(dst) != len(x) || len(p.Anchor) != len(x) {
		panic("optim: Prox dimension mismatch")
	}
	em := eta * p.Mu
	inv := 1 / (1 + em)
	for i := range dst {
		dst[i] = (x[i] + em*p.Anchor[i]) * inv
	}
}
