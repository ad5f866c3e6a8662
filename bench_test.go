package fedproxvr

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benches for the design decisions called out in DESIGN.md §6.
// Benchmarks run the same regenerators as cmd/paper at a reduced scale so
// `go test -bench=.` completes in minutes; cmd/paper runs them full-size.

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
)

// benchScale is the reduced-size configuration shared by the per-figure
// benchmarks below.
func benchScale() Scale {
	sc := microScale()
	sc.Rounds = 10
	return sc
}

// BenchmarkFig1ParamSweep regenerates Figure 1: the (β, μ) training-time
// optimization swept over γ for each heterogeneity level.
func BenchmarkFig1ParamSweep(b *testing.B) {
	sigma2s, gammas := Fig1Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := RunFig1(sigma2s, gammas[:5])
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig2ConvexFashion regenerates Figure 2: FedAvg vs FedProxVR
// (SVRG/SARAH) on the convex Fashion-image task across the β/τ panels.
func BenchmarkFig2ConvexFashion(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig2(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3NonconvexCNN regenerates Figure 3: the same comparison with
// the two-layer CNN on digit images.
func BenchmarkFig3NonconvexCNN(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig3(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ProximalPenalty regenerates Figure 4: the μ sweep on the
// heterogeneous Synthetic dataset at the aggressive step size.
func BenchmarkFig4ProximalPenalty(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig4(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ConvexBest regenerates Table 1: per-algorithm random
// hyperparameter search on the convex task.
func BenchmarkTable1ConvexBest(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTable1(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2NonconvexBest regenerates Table 2: the same search on the
// CNN task.
func BenchmarkTable2NonconvexBest(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTable2(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

func ablationTask(b *testing.B) Task {
	b.Helper()
	return SyntheticTask(SyntheticOptions{Devices: 16, MinSamples: 60, MaxSamples: 200, Seed: 7})
}

// BenchmarkAblationParallelRound measures one global round with devices
// fanned out across GOMAXPROCS goroutines of the process-wide pool…
func BenchmarkAblationParallelRound(b *testing.B) {
	benchRound(b, true)
}

// BenchmarkAblationSequentialRound …versus the same round on one core.
func BenchmarkAblationSequentialRound(b *testing.B) {
	benchRound(b, false)
}

func benchRound(b *testing.B, parallel bool) {
	task := ablationTask(b)
	cfg := FedProxVR(SARAH, 5, task.L, 10, 20, 16, 1)
	cfg.Parallel = parallel
	cfg.Seed = 1
	r, err := NewRunner(task, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r.Step() // the first round builds the workers' scratch and the report buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkNewRunnerCNN10 is the set-up cost of the benchmark's cnn10
// scenario: NewRunner over ten devices of the width/8 paper CNN. A
// device is data and a model builds its workspace when first evaluated, so
// this must stay kilobytes and microseconds — one 17 MB clone per device
// built (and zeroed) here is the layout it guards against.
func BenchmarkNewRunnerCNN10(b *testing.B) {
	task, err := CNNTask(ImageOptions{Style: Digits, Devices: 10, SamplesPerClass: 4, Seed: 7}, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := FedProxVR(SARAH, 5, task.L, 0.01, 2, 8, 1)
	cfg.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(task, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationProxClosedForm measures the proximal gradient step
// prox_{ηh_s}(w − ηv) through the closed form of eq. (10)…
func BenchmarkAblationProxClosedForm(b *testing.B) {
	p, w, v, dst := proxFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(dst, w, v, 0.1)
	}
}

// BenchmarkAblationProxIterative …versus solving the prox subproblem by
// inner gradient descent.
func BenchmarkAblationProxIterative(b *testing.B) {
	p, w, v, dst := proxFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proxIterative(p, dst, w, v, 0.1, 20)
	}
}

// proxIterative takes the step prox_{ηh_s}(w − ηv) by solving the prox
// subproblem argmin_u h_s(u) + ‖u−x‖²/(2η) at x = w − ηv by gradient
// descent instead of the closed form Prox.Step: the ablation baseline
// above.
func proxIterative(p optim.Prox, dst, w, v []float64, eta float64, iters int) {
	for i := range dst {
		dst[i] = w[i] - eta*v[i]
	}
	if p.Mu == 0 {
		return
	}
	// The subproblem is (μ+1/η)-strongly convex and (μ+1/η)-smooth, so the
	// exact-minimizing step size is 1/(μ+1/η); a few iterations converge
	// to machine precision.
	step := 1 / (p.Mu + 1/eta)
	for k := 0; k < iters; k++ {
		for i := range dst {
			x := w[i] - eta*v[i]
			g := p.Mu*(dst[i]-p.Anchor[i]) + (dst[i]-x)/eta
			dst[i] -= step * g
		}
	}
}

func TestProxIterativeMatchesClosedForm(t *testing.T) {
	rng := randx.New(1)
	anchor := make([]float64, 10)
	w := make([]float64, 10)
	v := make([]float64, 10)
	randx.NormalVec(rng, anchor, 0, 1)
	randx.NormalVec(rng, w, 0, 1)
	randx.NormalVec(rng, v, 0, 1)
	p := optim.Prox{Mu: 1.3, Anchor: anchor}
	closed := make([]float64, 10)
	iter := make([]float64, 10)
	p.Step(closed, w, v, 0.2)
	proxIterative(p, iter, w, v, 0.2, 50)
	for i := range closed {
		if math.Abs(closed[i]-iter[i]) > 1e-9 {
			t.Fatalf("iterative prox differs at %d: %v vs %v", i, iter[i], closed[i])
		}
	}
}

// proxFixture returns a step's operands at tcp8_f64's dimension, 7850.
func proxFixture() (p optim.Prox, w, v, dst []float64) {
	rng := randx.New(1)
	anchor := make([]float64, 7850)
	w = make([]float64, 7850)
	v = make([]float64, 7850)
	randx.NormalVec(rng, anchor, 0, 1)
	randx.NormalVec(rng, w, 0, 1)
	randx.NormalVec(rng, v, 0, 1)
	return optim.Prox{Mu: 0.5, Anchor: anchor}, w, v, make([]float64, 7850)
}

// BenchmarkAblationEstimatorSGD / SVRG / SARAH isolate the per-round cost
// of the three gradient estimators at identical (η, τ, B).
func BenchmarkAblationEstimatorSGD(b *testing.B) { benchEstimator(b, optim.SGD) }

// BenchmarkAblationEstimatorSVRG benchmarks the SVRG inner loop.
func BenchmarkAblationEstimatorSVRG(b *testing.B) { benchEstimator(b, optim.SVRG) }

// BenchmarkAblationEstimatorSARAH benchmarks the SARAH inner loop.
func BenchmarkAblationEstimatorSARAH(b *testing.B) { benchEstimator(b, optim.SARAH) }

func benchEstimator(b *testing.B, est optim.Estimator) {
	rng := randx.New(2)
	ds := data.New(60, 10, 300)
	x := make([]float64, 60)
	for i := 0; i < 300; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, i%10)
	}
	m := models.NewSoftmax(60, 10)
	s, sc := optim.NewSolver(m), new(optim.Scratch)
	anchor := make([]float64, m.Dim())
	out := make([]float64, m.Dim())
	cfg := optim.LocalConfig{Estimator: est, Eta: 0.01, Tau: 20, Batch: 16, Mu: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(sc, ds, anchor, out, cfg, rng, nil)
	}
}

// BenchmarkAblationReturnPolicies compares the cost of the three iterate
// selection policies of Algorithm 1 line 10.
func BenchmarkAblationReturnRandom(b *testing.B) { benchReturn(b, optim.ReturnRandom) }

// BenchmarkAblationReturnLast benchmarks the last-iterate policy.
func BenchmarkAblationReturnLast(b *testing.B) { benchReturn(b, optim.ReturnLast) }

func benchReturn(b *testing.B, ret optim.ReturnPolicy) {
	rng := randx.New(3)
	ds := data.New(60, 10, 200)
	x := make([]float64, 60)
	for i := 0; i < 200; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, i%10)
	}
	m := models.NewSoftmax(60, 10)
	s, sc := optim.NewSolver(m), new(optim.Scratch)
	anchor := make([]float64, m.Dim())
	out := make([]float64, m.Dim())
	cfg := optim.LocalConfig{Estimator: optim.SARAH, Eta: 0.01, Tau: 20, Batch: 16, Mu: 0.1, Return: ret}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(sc, ds, anchor, out, cfg, rng, nil)
	}
}

// BenchmarkTimingStudy regenerates the Section 4.3 empirical validation:
// time-to-target across (fleet, τ) on the simulated network.
func BenchmarkTimingStudy(b *testing.B) {
	sc := benchScale()
	sc.Rounds = 25
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTimingStudy(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStragglerStudy regenerates the sync-vs-async straggler
// comparison (the asynchronous extension experiment).
func BenchmarkStragglerStudy(b *testing.B) {
	sc := benchScale()
	sc.Rounds = 15
	sc.Devices = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStragglerStudy(sc); err != nil {
			b.Fatal(err)
		}
	}
}
