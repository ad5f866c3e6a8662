package optim

import (
	"math"
	"testing"
	"testing/quick"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
)

func TestProxClosedFormMatchesArgmin(t *testing.T) {
	// prox_{ηh}(x) minimizes h(w) + ‖w−x‖²/(2η); verify the closed form
	// of the step, x = w − ηv, against a fine grid search in 1-D.
	p := Prox{Mu: 0.7, Anchor: []float64{2.0}}
	w, v := []float64{-1.0}, []float64{2.0}
	eta := 0.3
	x := w[0] - eta*v[0]
	dst := make([]float64, 1)
	p.Step(dst, w, v, eta)
	obj := func(u float64) float64 {
		return p.Mu/2*(u-2)*(u-2) + (u-x)*(u-x)/(2*eta)
	}
	bestU, bestV := 0.0, math.Inf(1)
	for u := -3.0; u <= 3.0; u += 1e-4 {
		if v := obj(u); v < bestV {
			bestU, bestV = u, v
		}
	}
	if math.Abs(dst[0]-bestU) > 1e-3 {
		t.Fatalf("closed form %v, grid argmin %v", dst[0], bestU)
	}
}

// With μ = 0 the prox is the identity, so a step is the plain gradient
// step w + (−η)·v, bit for bit, in place too: the anchor's values, NaNs
// here, are not read.
func TestProxIdentityWhenMuZero(t *testing.T) {
	p := Prox{Mu: 0, Anchor: []float64{math.NaN(), math.NaN(), math.NaN()}}
	x := []float64{1, -2, 3}
	v := []float64{0.5, 1, -2}
	dst := make([]float64, 3)
	p.Step(dst, x, v, 0.5)
	for i := range x {
		if want := x[i] + -0.5*v[i]; math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("mu=0 step at %d is %v, want the gradient step %v", i, dst[i], want)
		}
	}
	// In-place must also work.
	p.Step(x, x, v, 0.5)
	if x[0] != 0.75 {
		t.Fatal("in-place step broken")
	}
}

// Property (firm non-expansiveness implies non-expansiveness):
// ‖prox(x) − prox(y)‖ ≤ ‖x − y‖ for all x, y — and so for two steps
// along one direction v, which shifts x and y alike.
func TestProxNonExpansiveQuick(t *testing.T) {
	f := func(seed int64, muRaw uint8, etaRaw uint8) bool {
		rng := randx.New(seed)
		mu := float64(muRaw) / 16
		eta := float64(etaRaw+1) / 64
		anchor := make([]float64, 6)
		x := make([]float64, 6)
		y := make([]float64, 6)
		v := make([]float64, 6)
		randx.NormalVec(rng, anchor, 0, 2)
		randx.NormalVec(rng, x, 0, 2)
		randx.NormalVec(rng, y, 0, 2)
		randx.NormalVec(rng, v, 0, 2)
		p := Prox{Mu: mu, Anchor: anchor}
		px := make([]float64, 6)
		py := make([]float64, 6)
		p.Step(px, x, v, eta)
		p.Step(py, y, v, eta)
		return distSq(px, py) <= distSq(x, y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the anchor is the fixed point of prox, so a step from the
// anchor along v = 0 stays there.
func TestProxFixedPointQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		anchor := make([]float64, 4)
		randx.NormalVec(rng, anchor, 0, 3)
		p := Prox{Mu: 2.5, Anchor: anchor}
		dst := make([]float64, 4)
		p.Step(dst, anchor, make([]float64, 4), 0.7)
		return distSq(dst, anchor) < 1e-20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorString(t *testing.T) {
	if SGD.String() != "SGD" || SVRG.String() != "SVRG" || SARAH.String() != "SARAH" {
		t.Fatal("Stringer broken")
	}
	if Estimator(99).String() != "Estimator(99)" {
		t.Fatal("unknown estimator string wrong")
	}
}

func TestLocalConfigValidate(t *testing.T) {
	good := LocalConfig{Eta: 0.1, Tau: 5, Batch: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LocalConfig{
		{Eta: 0, Tau: 5, Batch: 2},
		{Eta: 0.1, Tau: -1, Batch: 2},
		{Eta: 0.1, Tau: 5, Batch: 0},
		{Eta: 0.1, Tau: 5, Batch: 2, Mu: -1},
		{Eta: 0.1, Tau: 5, Batch: 2, Estimator: -1},
		{Eta: 0.1, Tau: 5, Batch: 2, Estimator: SARAH + 1},
		{Eta: 0.1, Tau: 5, Batch: 2, Return: -1},
		{Eta: 0.1, Tau: 5, Batch: 2, Return: ReturnRandom + 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

// TestLocalConfigValidateNonFinite: a NaN or infinite η or μ trains a NaN
// model, so Validate refuses each, while the largest finite values and
// μ = 0 pass.
func TestLocalConfigValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		eta, mu float64
		ok      bool
	}{
		{eta: nan, mu: 0.1},
		{eta: inf, mu: 0.1},
		{eta: -inf, mu: 0.1},
		{eta: 0.1, mu: nan},
		{eta: 0.1, mu: inf},
		{eta: 0.1, mu: -inf},
		{eta: nan, mu: nan},
		{eta: math.MaxFloat64, mu: math.MaxFloat64, ok: true},
		{eta: math.SmallestNonzeroFloat64, mu: 0, ok: true},
	} {
		c := LocalConfig{Eta: tc.eta, Mu: tc.mu, Tau: 5, Batch: 2}
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("η = %v, μ = %v: Validate() = %v, want ok = %v", tc.eta, tc.mu, err, tc.ok)
		}
	}
}

// leastSquares is the convex fixture the solver tests train:
// f_i(w) = ½(x_iᵀw − y_i)² over a dataset whose rows carry their target
// after the d features, [x_i, y_i], so a noiseless quadDataset has its
// minimizer at w* in closed form.
type leastSquares struct{ d int }

func (m leastSquares) Dim() int            { return m.d }
func (m leastSquares) Clone() models.Model { return m }

// residuals calls fn(i, x_iᵀw − y_i) for every selected sample and returns
// how many there were.
func (m leastSquares) residuals(w []float64, ds *data.Dataset, idx []int, fn func(i int, r float64)) int {
	n := len(idx)
	if idx == nil {
		n = ds.N()
	}
	for k := 0; k < n; k++ {
		i := k
		if idx != nil {
			i = idx[k]
		}
		row := ds.Sample(i)
		fn(i, mathx.Dot(row[:m.d], w)-row[m.d])
	}
	return n
}

func (m leastSquares) Loss(w []float64, ds *data.Dataset, idx []int) float64 {
	var sum float64
	n := m.residuals(w, ds, idx, func(_ int, r float64) { sum += r * r / 2 })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (m leastSquares) Grad(grad, w []float64, ds *data.Dataset, idx []int) {
	mathx.Zero(grad)
	n := m.residuals(w, ds, idx, func(i int, r float64) { mathx.Axpy(r, ds.Sample(i)[:m.d], grad) })
	if n > 0 {
		mathx.Scal(1/float64(n), grad)
	}
}

func (m leastSquares) LossGrad(grad, w []float64, ds *data.Dataset) float64 {
	m.Grad(grad, w, ds, nil)
	return m.Loss(w, ds, nil)
}

// distSq returns ‖x − y‖².
func distSq(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += (v - y[i]) * (v - y[i])
	}
	return s
}

// quadDataset builds a least-squares task whose optimum is known:
// y_i = x_iᵀ w*, so F is minimized at w* with F(w*) = 0.
func quadDataset(n, d int, wStar []float64, seed int64) *data.Dataset {
	return noisyQuadDataset(n, d, wStar, 0, seed)
}

func solveOnce(t *testing.T, est Estimator, tau int, mu float64, ret ReturnPolicy) float64 {
	t.Helper()
	d := 8
	wStar := make([]float64, d)
	for i := range wStar {
		wStar[i] = float64(i%3) - 1
	}
	ds := quadDataset(200, d, wStar, 3)
	m := leastSquares{d}
	s, sc := NewSolver(m), new(Scratch)
	anchor := make([]float64, d) // start at 0
	out := make([]float64, d)
	cfg := LocalConfig{Estimator: est, Eta: 0.05, Tau: tau, Batch: 8, Mu: mu, Return: ret}
	s.Solve(sc, ds, anchor, out, cfg, randx.New(9), nil)
	return m.Loss(out, ds, nil)
}

func TestSolverReducesLossAllEstimators(t *testing.T) {
	base := solveOnce(t, SGD, 0, 0, ReturnLast) // tau=0: one prox-full-grad step
	for _, est := range []Estimator{SGD, SVRG, SARAH} {
		loss := solveOnce(t, est, 100, 0, ReturnLast)
		if loss >= base {
			t.Fatalf("%v: loss %v did not improve on one-step loss %v", est, loss, base)
		}
		// Note: within a single inner loop the SVRG anchor never refreshes,
		// so its residual variance scales with the distance to the anchor;
		// we only require an order-of-magnitude improvement here. The
		// anchor-refresh benefit is tested end-to-end in the root package.
		if loss > base/10 {
			t.Fatalf("%v: loss %v not well below one-step loss %v", est, loss, base)
		}
	}
}

// noisyQuadDataset has label noise, so SGD's gradient variance does NOT
// vanish at the optimum (no interpolation regime).
func noisyQuadDataset(n, d int, wStar []float64, noise float64, seed int64) *data.Dataset {
	rng := randx.New(seed)
	ds := data.New(d+1, 0, n)
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		randx.NormalVec(rng, x, 0, 1)
		y := mathx.Dot(x, wStar)
		if noise != 0 {
			y += noise * rng.NormFloat64()
		}
		ds.X = append(append(ds.X, x...), y)
	}
	return ds
}

func TestVarianceReductionBeatsSGDNearOptimum(t *testing.T) {
	// Variance reduction removes the LABEL-NOISE component of the gradient
	// variance: SVRG/SARAH directions differ from the full gradient only by
	// terms ∝ L‖w − w_anchor‖, while SGD keeps an O(σ²) noise floor. With
	// the anchor near the ERM optimum and noisy labels, SVRG/SARAH must
	// land strictly closer to the ERM minimum than SGD at equal budgets.
	d := 8
	wStar := make([]float64, d)
	for i := range wStar {
		wStar[i] = 0.2 // optimum close to the zero anchor
	}
	ds := noisyQuadDataset(300, d, wStar, 1.0, 21)
	m := leastSquares{d}
	run := func(est Estimator) float64 {
		s, sc := NewSolver(m), new(Scratch)
		anchor := make([]float64, d)
		out := make([]float64, d)
		cfg := LocalConfig{Estimator: est, Eta: 0.05, Tau: 300, Batch: 4}
		s.Solve(sc, ds, anchor, out, cfg, randx.New(22), nil)
		return m.Loss(out, ds, nil)
	}
	sgd, svrg, sarah := run(SGD), run(SVRG), run(SARAH)
	if svrg >= sgd {
		t.Fatalf("SVRG (%v) not better than SGD (%v)", svrg, sgd)
	}
	if sarah >= sgd {
		t.Fatalf("SARAH (%v) not better than SGD (%v)", sarah, sgd)
	}
}

func TestProximalPenaltyKeepsIterateNearAnchor(t *testing.T) {
	d := 8
	wStar := make([]float64, d)
	for i := range wStar {
		wStar[i] = 5 // optimum far from the anchor at 0
	}
	ds := quadDataset(100, d, wStar, 4)
	m := leastSquares{d}
	s, sc := NewSolver(m), new(Scratch)
	anchor := make([]float64, d)
	free := make([]float64, d)
	tied := make([]float64, d)
	cfgFree := LocalConfig{Estimator: SARAH, Eta: 0.05, Tau: 100, Batch: 8, Mu: 0}
	cfgTied := cfgFree
	cfgTied.Mu = 10
	s.Solve(sc, ds, anchor, free, cfgFree, randx.New(5), nil)
	s.Solve(sc, ds, anchor, tied, cfgTied, randx.New(5), nil)
	if mathx.Nrm2(tied) >= mathx.Nrm2(free) {
		t.Fatalf("mu=10 iterate (‖w‖=%v) should stay closer to anchor than mu=0 (‖w‖=%v)",
			mathx.Nrm2(tied), mathx.Nrm2(free))
	}
}

func TestSolverDeterministicGivenRNG(t *testing.T) {
	ds := quadDataset(50, 4, []float64{1, -1, 2, 0}, 6)
	m := leastSquares{4}
	s, sc := NewSolver(m), new(Scratch)
	cfg := LocalConfig{Estimator: SVRG, Eta: 0.05, Tau: 20, Batch: 4}
	anchor := make([]float64, 4)
	out1 := make([]float64, 4)
	out2 := make([]float64, 4)
	s.Solve(sc, ds, anchor, out1, cfg, randx.New(7), nil)
	s.Solve(sc, ds, anchor, out2, cfg, randx.New(7), nil)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("solver not deterministic for fixed RNG")
		}
	}
}

// TestSolverHandedV0IsInvisible: a solve handed line 4's gradient — the
// bits Grad computes at the anchor — reports the same iterate and charges
// the same gradient evaluations as one that computes it, for every
// estimator.
func TestSolverHandedV0IsInvisible(t *testing.T) {
	ds := quadDataset(50, 4, []float64{1, -1, 2, 0}, 6)
	m := leastSquares{4}
	s := NewSolver(m)
	anchor := []float64{0.3, -0.2, 0.1, 0.5}
	v0 := make([]float64, 4)
	m.Grad(v0, anchor, ds, nil)
	for _, est := range []Estimator{SGD, SVRG, SARAH} {
		cfg := LocalConfig{Estimator: est, Eta: 0.05, Tau: 12, Batch: 4, Mu: 0.1}
		own, handed := make([]float64, 4), make([]float64, 4)
		nOwn := s.Solve(new(Scratch), ds, anchor, own, cfg, randx.New(3), nil)
		nHanded := s.Solve(new(Scratch), ds, anchor, handed, cfg, randx.New(3), v0)
		if nOwn != nHanded {
			t.Fatalf("%v: %d gradient evaluations computing v0, %d handed it", est, nOwn, nHanded)
		}
		for i := range own {
			if math.Float64bits(own[i]) != math.Float64bits(handed[i]) {
				t.Fatalf("%v: coordinate %d is %v computing v0, %v handed it", est, i, own[i], handed[i])
			}
		}
	}
}

func TestSolverTauZeroReturnsProxStep(t *testing.T) {
	ds := quadDataset(20, 3, []float64{1, 2, 3}, 7)
	m := leastSquares{3}
	s, sc := NewSolver(m), new(Scratch)
	anchor := []float64{0.5, 0.5, 0.5}
	out := make([]float64, 3)
	cfg := LocalConfig{Estimator: SARAH, Eta: 0.1, Tau: 0, Batch: 1, Mu: 0}
	s.Solve(sc, ds, anchor, out, cfg, randx.New(8), nil)
	// tau=0: out = anchor − η ∇F(anchor).
	g := make([]float64, 3)
	m.Grad(g, anchor, ds, nil)
	for i := range out {
		want := anchor[i] - 0.1*g[i]
		if math.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("tau=0 step wrong at %d: %v vs %v", i, out[i], want)
		}
	}
}

func TestSolverEmptyShardReturnsAnchor(t *testing.T) {
	ds := data.New(3, 0, 0)
	m := leastSquares{3}
	s, sc := NewSolver(m), new(Scratch)
	anchor := []float64{1, 2, 3}
	out := make([]float64, 3)
	if n := s.Solve(sc, ds, anchor, out, LocalConfig{Eta: 0.1, Tau: 5, Batch: 2}, randx.New(1), nil); n != 0 {
		t.Fatalf("empty shard should cost 0 grad evals, got %d", n)
	}
	for i := range out {
		if out[i] != anchor[i] {
			t.Fatal("empty shard should return the anchor")
		}
	}
}

func TestReturnPolicies(t *testing.T) {
	ds := quadDataset(60, 4, []float64{1, 1, 1, 1}, 9)
	m := leastSquares{4}
	s, sc := NewSolver(m), new(Scratch)
	anchor := make([]float64, 4)
	for _, ret := range []ReturnPolicy{ReturnLast, ReturnRandom} {
		out := make([]float64, 4)
		cfg := LocalConfig{Estimator: SVRG, Eta: 0.05, Tau: 30, Batch: 4, Return: ret}
		s.Solve(sc, ds, anchor, out, cfg, randx.New(10), nil)
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("policy %d produced non-finite iterate %v", ret, out)
			}
		}
		if mathx.Nrm2(out) == 0 {
			t.Fatalf("policy %d returned the zero anchor — no progress recorded", ret)
		}
	}
}

func TestGradEvalAccounting(t *testing.T) {
	ds := quadDataset(50, 3, []float64{1, 0, -1}, 11)
	m := leastSquares{3}
	s, sc := NewSolver(m), new(Scratch)
	anchor := make([]float64, 3)
	out := make([]float64, 3)
	// SGD: N (anchor full grad) + tau*B.
	n := s.Solve(sc, ds, anchor, out, LocalConfig{Estimator: SGD, Eta: 0.01, Tau: 10, Batch: 4}, randx.New(1), nil)
	if n != 50+10*4 {
		t.Fatalf("SGD evals = %d, want 90", n)
	}
	// SVRG/SARAH: N + 2*tau*B.
	n = s.Solve(sc, ds, anchor, out, LocalConfig{Estimator: SVRG, Eta: 0.01, Tau: 10, Batch: 4}, randx.New(1), nil)
	if n != 50+2*10*4 {
		t.Fatalf("SVRG evals = %d, want 130", n)
	}
}

func TestSurrogateGradNormCriterion(t *testing.T) {
	// After enough local iterations the surrogate gradient norm must drop
	// below θ·‖∇F_n(anchor)‖ for a reasonable θ — criterion (11).
	d := 6
	wStar := []float64{1, -2, 0.5, 3, -1, 2}
	ds := quadDataset(150, d, wStar, 12)
	m := leastSquares{d}
	s, sc := NewSolver(m), new(Scratch)
	anchor := make([]float64, d)
	out := make([]float64, d)
	mu := 0.5
	cfg := LocalConfig{Estimator: SARAH, Eta: 0.02, Tau: 400, Batch: 8, Mu: mu}
	s.Solve(sc, ds, anchor, out, cfg, randx.New(13), nil)
	lhs := s.SurrogateGradNorm(sc, ds, out, anchor, mu)
	rhs := s.LocalGradNorm(sc, ds, anchor)
	theta := lhs / rhs
	if theta > 0.3 {
		t.Fatalf("local accuracy θ=%v too weak after 400 iterations", theta)
	}
}

func BenchmarkSolverSVRGQuadratic(b *testing.B) {
	ds := quadDataset(500, 20, make([]float64, 20), 1)
	m := leastSquares{20}
	s, sc := NewSolver(m), new(Scratch)
	anchor := make([]float64, 20)
	out := make([]float64, 20)
	cfg := LocalConfig{Estimator: SVRG, Eta: 0.05, Tau: 20, Batch: 16}
	rng := randx.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(sc, ds, anchor, out, cfg, rng, nil)
	}
}

// Property: as μ → ∞ the proximal step pins the iterate to the anchor.
func TestHugeMuPinsIterateQuick(t *testing.T) {
	ds := quadDataset(40, 4, []float64{3, -3, 3, -3}, 50)
	m := leastSquares{4}
	f := func(seed int64) bool {
		rng := randx.New(seed)
		anchor := make([]float64, 4)
		randx.NormalVec(rng, anchor, 0, 1)
		s, sc := NewSolver(m), new(Scratch)
		out := make([]float64, 4)
		cfg := LocalConfig{Estimator: SVRG, Eta: 0.05, Tau: 20, Batch: 4, Mu: 1e9}
		s.Solve(sc, ds, anchor, out, cfg, rng, nil)
		return distSq(out, anchor) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ReturnRandom picks every iterate index with roughly uniform frequency.
func TestReturnRandomIsUniformish(t *testing.T) {
	// With tau=1 the candidate iterates are {w⁰, w¹}; w⁰ is the anchor, so
	// counting how often the anchor comes back estimates P(t'=0) ≈ 1/2.
	ds := quadDataset(30, 3, []float64{1, 1, 1}, 51)
	m := leastSquares{3}
	s, sc := NewSolver(m), new(Scratch)
	anchor := []float64{0.5, 0.5, 0.5}
	out := make([]float64, 3)
	cfg := LocalConfig{Estimator: SGD, Eta: 0.05, Tau: 1, Batch: 2, Return: ReturnRandom}
	rng := randx.New(52)
	anchors := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		s.Solve(sc, ds, anchor, out, cfg, rng, nil)
		if distSq(out, anchor) == 0 {
			anchors++
		}
	}
	frac := float64(anchors) / trials
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("P(return anchor) = %v, want ≈0.5", frac)
	}
}

// TestSARAHMatchesHandReplay replays a one-step SARAH solve by hand: the
// first proximal step from v⁰ = ∇F(w⁰), then recursion (8a)
// v¹ = ∇f_B(w¹) − ∇f_B(w⁰) + v⁰ and the step along v¹. The replay does
// the Solver's arithmetic in its order, (g1 − g2) + v and w + (−η)·v, on
// the same RNG stream, so the comparison is bitwise.
func TestSARAHMatchesHandReplay(t *testing.T) {
	const (
		dim     = 3
		eta     = 0.01
		batchSz = 4
	)
	ds := quadDataset(60, dim, []float64{1e4, -1e4, 1e4}, 32)
	m := leastSquares{dim}

	cfg := LocalConfig{Estimator: SARAH, Eta: eta, Tau: 1, Batch: batchSz}
	out := make([]float64, dim)
	s := NewSolver(m)
	s.Solve(new(Scratch), ds, make([]float64, dim), out, cfg, randx.New(7), nil)

	w0 := make([]float64, dim)
	v0 := make([]float64, dim)
	m.Grad(v0, w0, ds, nil)
	w1 := make([]float64, dim)
	Prox{Anchor: w0}.Step(w1, w0, v0, eta) // μ=0 ⇒ prox is the identity

	rng := randx.New(7) // Solve drew only the batch from its stream
	batch := make([]int, batchSz)
	randx.Batch(rng, batch, ds.N())
	g1 := make([]float64, dim)
	g2 := make([]float64, dim)
	m.Grad(g1, w1, ds, batch)
	m.Grad(g2, w0, ds, batch)
	v1 := make([]float64, dim)
	for i := range v1 {
		v1[i] = g1[i] - g2[i] + v0[i]
	}
	want := make([]float64, dim)
	Prox{Anchor: w0}.Step(want, w1, v1, eta)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("solver output differs from the hand replay at %d: %v vs %v", i, out[i], want[i])
		}
	}
}
