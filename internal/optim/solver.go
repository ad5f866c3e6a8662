package optim

import (
	"fmt"
	"math"
	"math/rand"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
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
	// ReturnAverage reports the average of all iterates.
	ReturnAverage
)

// EtaSchedule selects how the local step size evolves over the inner loop.
// The paper uses a fixed step size ("more practical than diminishing",
// footnote 1); the diminishing schedule exists as the ablation baseline.
type EtaSchedule int

const (
	// EtaFixed uses η at every local iteration (the paper's choice).
	EtaFixed EtaSchedule = iota
	// EtaDiminishing uses η/√(t+1) at local iteration t.
	EtaDiminishing
)

// LocalConfig parametrizes one device's inner loop.
type LocalConfig struct {
	Estimator Estimator
	Eta       float64 // step size η = 1/(βL)
	Tau       int     // number of local iterations τ
	Batch     int     // mini-batch size B (≥1)
	Mu        float64 // proximal penalty μ (0 disables the prox term)
	Return    ReturnPolicy
	Schedule  EtaSchedule
	// ClipNorm, when positive, rescales the stochastic direction v^(t) to
	// at most this Euclidean norm before the proximal step — a standard
	// stabilizer for aggressive step sizes on non-convex models.
	ClipNorm float64
}

// etaAt returns the step size for local iteration t under the schedule.
func (c LocalConfig) etaAt(t int) float64 {
	if c.Schedule == EtaDiminishing {
		return c.Eta / math.Sqrt(float64(t+1))
	}
	return c.Eta
}

// Validate reports configuration errors.
func (c LocalConfig) Validate() error {
	if c.Eta <= 0 {
		return fmt.Errorf("optim: step size must be positive, got %v", c.Eta)
	}
	if c.Tau < 0 {
		return fmt.Errorf("optim: tau must be non-negative, got %d", c.Tau)
	}
	if c.Batch < 1 {
		return fmt.Errorf("optim: batch must be at least 1, got %d", c.Batch)
	}
	if c.Mu < 0 {
		return fmt.Errorf("optim: mu must be non-negative, got %v", c.Mu)
	}
	if c.ClipNorm < 0 {
		return fmt.Errorf("optim: clip norm must be non-negative, got %v", c.ClipNorm)
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
// of each named sub-phase — "anchor-grad" (line 4's full local gradient at
// the anchor) and "inner-loop" (lines 5–9, the τ stochastic proximal
// steps) — and invokes the returned func when the sub-phase ends. The TCP
// worker uses it to record trace spans against the coordinator-propagated
// round span. The hook lives on the Solver, not LocalConfig, because
// LocalConfig crosses the wire as a fixed-layout frame of scalars (see
// transport/frame.go) and a func has no encoding. A nil hook (the default)
// costs one branch per sub-phase.
func (h *Solver) SetPhaseHook(hook func(name string) func()) { h.phase = hook }

// Scratch is the memory a solve runs in: a private clone of the model (with
// its GEMM/im2col workspace) and the inner loop's dim-length vectors. It
// belongs to whoever executes solves — one per executor goroutine — not to
// a device, and must not be shared across goroutines. The zero value is
// ready: the first Solve builds it from the solver's model. A solve reads
// nothing from a Scratch that it has not first overwritten, so which
// device used it last cannot affect a result.
type Scratch struct {
	src   models.Model // template model was cloned from
	model models.Model

	w      []float64 // current iterate w^(t)
	wPrev  []float64 // previous iterate (SARAH)
	v      []float64 // current direction v^(t)
	anchor []float64 // w̄^(s−1) copy
	vFull  []float64 // v^(0): full local gradient at the anchor
	g1, g2 []float64 // minibatch gradient scratch
	pre    []float64 // w − ηv before prox
	avg    []float64 // ReturnAverage accumulator
	vClip  []float64 // clipped copy of v for the proximal step
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
		g1: vec(), g2: vec(), pre: vec(), avg: vec(), vClip: vec(),
	}
}

// Solve runs the inner loop on shard ds from global model anchor, using s as
// its working memory, and writes the reported local iterate into out.
// It returns the number of gradient evaluations spent (a proxy for d_cmp in
// the timing model).
func (h *Solver) Solve(s *Scratch, ds *data.Dataset, anchor, out []float64, cfg LocalConfig, rng *rand.Rand) int {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if d := h.model.Dim(); len(anchor) != d || len(out) != d {
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

	copy(s.anchor, anchor)
	copy(s.w, anchor)
	prox := Prox{Mu: cfg.Mu, Anchor: s.anchor}

	// Line 4: full local gradient at the anchor and first proximal step.
	var endPhase func()
	if h.phase != nil {
		endPhase = h.phase("anchor-grad")
	}
	s.model.Grad(s.vFull, s.w, ds, nil)
	if endPhase != nil {
		endPhase()
	}
	copy(s.v, s.vFull)
	gradEvals := ds.N()

	// Pick the reported iterate up front for ReturnRandom (reservoir-free).
	reportT := -1
	if cfg.Return == ReturnRandom {
		reportT = rng.Intn(cfg.Tau + 1)
	}
	if cfg.Return == ReturnAverage {
		mathx.Zero(s.avg)
	}
	record := func(t int) {
		switch cfg.Return {
		case ReturnRandom:
			if t == reportT {
				copy(out, s.w)
			}
		case ReturnAverage:
			mathx.Axpy(1/float64(cfg.Tau+1), s.w, s.avg)
		}
	}
	record(0)

	// w^(1) = prox(w^(0) − η v^(0)).
	copy(s.wPrev, s.w)
	eta0 := cfg.etaAt(0)
	mathx.AddScaled(s.pre, s.w, -eta0, s.direction(cfg))
	prox.Apply(s.w, s.pre, eta0)

	// Lines 5–9: τ stochastic proximal steps.
	if h.phase != nil {
		endPhase = h.phase("inner-loop")
	}
	for t := 1; t <= cfg.Tau; t++ {
		randx.Batch(rng, batch, ds.N())
		switch cfg.Estimator {
		case SGD:
			s.model.Grad(s.v, s.w, ds, batch)
			gradEvals += cfg.Batch
		case SVRG:
			// v = ∇f_B(w^(t)) − ∇f_B(w^(0)) + v^(0)
			s.model.Grad(s.g1, s.w, ds, batch)
			s.model.Grad(s.g2, s.anchor, ds, batch)
			for i := range s.v {
				s.v[i] = s.g1[i] - s.g2[i] + s.vFull[i]
			}
			gradEvals += 2 * cfg.Batch
		case SARAH:
			// v = ∇f_B(w^(t)) − ∇f_B(w^(t−1)) + v^(t−1)
			s.model.Grad(s.g1, s.w, ds, batch)
			s.model.Grad(s.g2, s.wPrev, ds, batch)
			for i := range s.v {
				s.v[i] = s.g1[i] - s.g2[i] + s.v[i]
			}
			gradEvals += 2 * cfg.Batch
		default:
			panic(fmt.Sprintf("optim: unknown estimator %d", cfg.Estimator))
		}
		record(t)
		copy(s.wPrev, s.w)
		eta := cfg.etaAt(t)
		mathx.AddScaled(s.pre, s.w, -eta, s.direction(cfg))
		prox.Apply(s.w, s.pre, eta)
	}
	if h.phase != nil && endPhase != nil {
		endPhase()
	}

	switch cfg.Return {
	case ReturnLast:
		copy(out, s.w)
	case ReturnAverage:
		copy(out, s.avg)
	case ReturnRandom:
		// out already holds iterate reportT.
	}
	return gradEvals
}

// direction returns the vector to use in the proximal step: s.v itself, or
// — when clipping is enabled and binding — a rescaled copy in s.vClip.
// The stored direction s.v is never mutated: SARAH's recursion (8a) reads
// v^(t−1) at the next iteration, and clipping it in place would silently
// substitute the clipped step for the estimator's state (the historical
// Solver.clip bug).
func (s *Scratch) direction(cfg LocalConfig) []float64 {
	if cfg.ClipNorm <= 0 {
		return s.v
	}
	n := mathx.Nrm2(s.v)
	if n <= cfg.ClipNorm {
		return s.v
	}
	copy(s.vClip, s.v)
	mathx.Scal(cfg.ClipNorm/n, s.vClip)
	return s.vClip
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
