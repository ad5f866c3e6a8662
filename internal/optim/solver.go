package optim

import (
	"fmt"
	"math"
	"math/rand"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
)

// Estimator selects the stochastic gradient direction v^(t) of Algorithm 1.
type Estimator int

const (
	// SGD uses the vanilla stochastic gradient v^(t) = ∇f_it(w^(t)).
	SGD Estimator = iota
	// SVRG uses eq. (8b): v = ∇f_it(w^(t)) − ∇f_it(w^(0)) + v^(0).
	SVRG
	// SARAH uses eq. (8a): v = ∇f_it(w^(t)) − ∇f_it(w^(t−1)) + v^(t−1).
	SARAH
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case SGD:
		return "SGD"
	case SVRG:
		return "SVRG"
	case SARAH:
		return "SARAH"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// ReturnPolicy selects which local iterate the device reports (Alg. 1
// line 10 draws uniformly at random from {w^(0), …, w^(τ)}; practical runs
// use the last iterate).
type ReturnPolicy int

const (
	// ReturnLast reports the final iterate w^(τ+1).
	ReturnLast ReturnPolicy = iota
	// ReturnRandom reports a uniformly random iterate from {0,…,τ}, as in
	// the paper's Algorithm 1.
	ReturnRandom
)

// LocalConfig parametrizes one device's inner loop: the fixed-step
// proximal SGD/SVRG/SARAH steps of Algorithm 1 (footnote 1 prefers a
// fixed step size to a diminishing one).
type LocalConfig struct {
	Estimator Estimator
	Eta       float64 // step size η = 1/(βL)
	Tau       int     // number of local iterations τ
	Batch     int     // mini-batch size B (≥1)
	Mu        float64 // proximal penalty μ (0 disables the prox term)
	Return    ReturnPolicy
}

// Validate reports configuration errors.
func (c LocalConfig) Validate() error {
	if c.Estimator < SGD || c.Estimator > SARAH {
		return fmt.Errorf("optim: unknown estimator %d", int(c.Estimator))
	}
	if c.Return < ReturnLast || c.Return > ReturnRandom {
		return fmt.Errorf("optim: unknown return policy %d", int(c.Return))
	}
	if !(c.Eta > 0 && c.Eta <= math.MaxFloat64) {
		return fmt.Errorf("optim: step size must be positive and finite, got %v", c.Eta)
	}
	if c.Tau < 0 {
		return fmt.Errorf("optim: tau must be non-negative, got %d", c.Tau)
	}
	if c.Batch < 1 {
		return fmt.Errorf("optim: batch must be at least 1, got %d", c.Batch)
	}
	if !(c.Mu >= 0 && c.Mu <= math.MaxFloat64) {
		return fmt.Errorf("optim: mu must be non-negative and finite, got %v", c.Mu)
	}
	return nil
}

// Solver is one device's handle on the inner loop of Algorithm 1: which
// model the device trains and who observes its sub-phases. It is O(1) in
// the model size — everything dim- or workspace-sized a solve needs lives
// in the Scratch the caller passes to Solve — so a population of any size
// costs a pointer and a hook per device.
type Solver struct {
	// model is the clone template a Scratch binds to. It is never evaluated
	// through this handle, so devices may share one template.
	model models.Model
	phase func(name string) func()
}

// NewSolver returns the handle for a device that trains m.
func NewSolver(m models.Model) Solver { return Solver{model: m} }

// SetPhaseHook installs a sub-phase observer: Solve calls it at the start
// of each named sub-phase — "anchor-grad" (all of line 4: the anchor's
// copy, the full local gradient at the anchor, itself a copy when the
// caller handed it over, and the first proximal step) and "inner-loop"
// (lines 5–9, the τ stochastic proximal steps) — and invokes the returned
// func when the sub-phase ends. The TCP worker uses it to record trace
// spans against the coordinator-propagated round span. The hook lives on
// the Solver, not LocalConfig, because LocalConfig crosses the wire as a
// fixed-layout frame of scalars (see transport/frame.go) and a func has no
// encoding. A nil hook (the default) costs one branch per sub-phase.
func (h *Solver) SetPhaseHook(hook func(name string) func()) { h.phase = hook }

// Scratch is the memory a solve runs in: a private clone of the model (with
// its GEMM/im2col workspace) and the inner loop's seven dim-length vectors.
// It belongs to whoever executes solves — one per executor goroutine — not
// to a device, and must not be shared across goroutines. The zero value is
// ready: the first Solve builds it from the solver's model. A solve reads
// nothing from a Scratch that it has not first overwritten, and keeps no
// reference to a caller's buffer, so which device used it last cannot
// affect a result.
type Scratch struct {
	src   models.Model // template model was cloned from
	model models.Model

	w      []float64 // current iterate w^(t)
	wPrev  []float64 // previous iterate w^(t−1) (SARAH)
	v      []float64 // current direction v^(t)
	anchor []float64 // w̄^(s−1) copy
	vFull  []float64 // v^(0): full local gradient at the anchor
	g1, g2 []float64 // minibatch gradient scratch
	batch  []int
}

// bind readies s for solves on template m: it builds s on first use and is
// a no-op after. A scratch serves one template for its lifetime; handing it
// a solver of a different model is a bug, not a request to rebuild.
func (s *Scratch) bind(m models.Model) {
	if s.model != nil {
		if s.src != m {
			panic("optim: Scratch used with a second model")
		}
		return
	}
	d := m.Dim()
	vec := func() []float64 { return make([]float64, d) }
	*s = Scratch{
		src: m, model: m.Clone(),
		w: vec(), wPrev: vec(), v: vec(), anchor: vec(), vFull: vec(),
		g1: vec(), g2: vec(),
	}
}

// Solve runs the inner loop on shard ds from global model anchor, using s as
// its working memory, and writes the reported local iterate into out.
// v0, when the caller has it, is line 4's full local gradient ∇F_n(anchor)
// over ds, which the solve then copies instead of computing; nil computes
// it. Either way the solve's result is the same, bit for bit, when v0 holds
// Grad's bits. It returns the number of gradient evaluations the round is
// charged (a proxy for d_cmp in the timing model), line 4's included.
//
// Each step is one pass over the dim-length vectors it touches: the
// estimator update and the proximal step share one loop (tensor.VRStep),
// and SARAH hands w^(t) on to wPrev by a swap, not a copy. Line 4's step
// reads the anchor and v^(0) where they are, and under ReturnLast the last
// step writes straight into out. A step stores only what a later step
// reads: its iterate, and SARAH's direction v^(t) for t < τ. SVRG's
// direction is never read again (its base is v^(0)), so SVRG stores none.
func (h *Solver) Solve(s *Scratch, ds *data.Dataset, anchor, out []float64, cfg LocalConfig, rng *rand.Rand, v0 []float64) int {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if d := h.model.Dim(); len(anchor) != d || len(out) != d || (v0 != nil && len(v0) != d) {
		panic("optim: Solve dimension mismatch")
	}
	if ds.N() == 0 {
		copy(out, anchor)
		return 0
	}
	s.bind(h.model)
	if cap(s.batch) < cfg.Batch {
		s.batch = make([]int, cfg.Batch)
	}
	batch := s.batch[:cfg.Batch]

	// Line 4, from the anchor's copy to the first step, is the
	// "anchor-grad" phase.
	var endPhase func()
	if h.phase != nil {
		endPhase = h.phase("anchor-grad")
	}
	// The two copies a solve keeps. The engine may rewrite the global model
	// while a quorum-cut straggler is still solving from it, and a
	// handed-over v0 is the device's buffer, refilled by the next
	// measurement. Every other read is of the scratch's own vectors.
	copy(s.anchor, anchor)
	prox := Prox{Mu: cfg.Mu, Anchor: s.anchor}
	c := prox.at(cfg.Eta) // VRStep's coefficients

	// Line 4: full local gradient at the anchor.
	if v0 != nil {
		copy(s.vFull, v0)
	} else {
		s.model.Grad(s.vFull, s.anchor, ds, nil)
	}
	gradEvals := ds.N()

	// Pick the reported iterate up front for ReturnRandom (reservoir-free).
	reportT := -1
	if cfg.Return == ReturnRandom {
		reportT = rng.Intn(cfg.Tau + 1)
	}
	if reportT == 0 {
		copy(out, s.anchor)
	}
	// dst is where step t's iterate w^(t+1) goes: out for the one the
	// solve reports under ReturnLast, s.w (read after SARAH's swap)
	// otherwise.
	dst := func(t int) []float64 {
		if t == cfg.Tau && cfg.Return == ReturnLast {
			return out
		}
		return s.w
	}

	// Line 4's step: w^(1) = prox(w^(0) − η v^(0)), with w^(0) the anchor.
	prox.Step(dst(0), s.anchor, s.vFull, cfg.Eta)
	if endPhase != nil {
		endPhase()
	}

	// Lines 5–9: τ stochastic proximal steps.
	if h.phase != nil {
		endPhase = h.phase("inner-loop")
	}
	for t := 1; t <= cfg.Tau; t++ {
		randx.Batch(rng, batch, ds.N())
		if t == reportT {
			copy(out, s.w)
		}
		switch cfg.Estimator {
		case SGD:
			s.model.Grad(s.v, s.w, ds, batch)
			prox.Step(dst(t), s.w, s.v, cfg.Eta)
			gradEvals += cfg.Batch
		case SVRG:
			// v = ∇f_B(w^(t)) − ∇f_B(w^(0)) + v^(0), not stored: the
			// next step's base is v^(0) again.
			s.model.Grad(s.g1, s.w, ds, batch)
			s.model.Grad(s.g2, s.anchor, ds, batch)
			tensor.VRStep(c, dst(t), s.w, nil, s.g1, s.g2, s.vFull, s.anchor)
			gradEvals += 2 * cfg.Batch
		case SARAH:
			// v = ∇f_B(w^(t)) − ∇f_B(w^(t−1)) + v^(t−1); at t = 1 the
			// previous iterate and direction are the anchor and v^(0).
			prev, base, v := s.wPrev, s.v, s.v
			if t == 1 {
				prev, base = s.anchor, s.vFull
			}
			if t == cfg.Tau {
				v = nil // no later step reads v^(τ)
			}
			s.model.Grad(s.g1, s.w, ds, batch)
			s.model.Grad(s.g2, prev, ds, batch)
			s.w, s.wPrev = s.wPrev, s.w // w^(t) is the next step's previous iterate
			tensor.VRStep(c, dst(t), s.wPrev, v, s.g1, s.g2, base, s.anchor)
			gradEvals += 2 * cfg.Batch
		}
	}
	if h.phase != nil && endPhase != nil {
		endPhase()
	}
	return gradEvals
}

// SurrogateGradNorm returns ‖∇J_n(w)‖ = ‖∇F_n(w) + μ(w − anchor)‖ — the
// left-hand side of the local convergence criterion (11).
func (h *Solver) SurrogateGradNorm(s *Scratch, ds *data.Dataset, w, anchor []float64, mu float64) float64 {
	s.bind(h.model)
	s.model.Grad(s.g1, w, ds, nil)
	for i := range s.g1 {
		s.g1[i] += mu * (w[i] - anchor[i])
	}
	return mathx.Nrm2(s.g1)
}

// LocalGradNorm returns ‖∇F_n(w)‖ — the right-hand side of criterion (11).
func (h *Solver) LocalGradNorm(s *Scratch, ds *data.Dataset, w []float64) float64 {
	s.bind(h.model)
	s.model.Grad(s.g1, w, ds, nil)
	return mathx.Nrm2(s.g1)
}
