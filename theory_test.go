package fedproxvr

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/theory"
)

func TestEstimateSigmaBar2OrdersHeterogeneity(t *testing.T) {
	m := models.NewSoftmax(4, 4)
	rng := randx.New(1)

	// Homogeneous: every device holds IID copies of the same mixture.
	homoP, _ := blobPartition(6, 80, 4, 4, 30)
	// Re-partition so every device sees all labels (IID-ize): equal shards
	// of one random permutation (a Split that keeps every row shuffles
	// them in place).
	shuffled, _ := data.Merge(homoP.Clients...).Split(1, 31)
	n, dim := shuffled.N(), shuffled.Dim
	iid := &data.Partition{Clients: make([]*data.Dataset, 6)}
	for k := range iid.Clients {
		lo, hi := k*n/6, (k+1)*n/6
		iid.Clients[k] = &data.Dataset{Dim: dim, NumClasses: shuffled.NumClasses, X: shuffled.X[lo*dim : hi*dim], Y: shuffled.Y[lo:hi]}
	}
	homo := EstimateSigmaBar2(m, iid, 4, 0.5, rng)

	// Heterogeneous: 2 labels per device (the blobPartition default).
	hetero := EstimateSigmaBar2(m, homoP, 4, 0.5, randx.New(1))

	if !(hetero > homo) {
		t.Fatalf("σ̄² should order heterogeneity: hetero %v vs iid %v", hetero, homo)
	}
	if homo < 0 || math.IsNaN(hetero) {
		t.Fatal("invalid estimates")
	}
}

func TestEstimateSigmaBar2ZeroWhenIdenticalShards(t *testing.T) {
	// All devices share literally the same data → ∇F_n ≡ ∇F̄ → σ̄² = 0.
	ds := data.New(3, 2, 10)
	rng := randx.New(2)
	x := make([]float64, 3)
	for i := 0; i < 10; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, i%2)
	}
	p := &data.Partition{Clients: []*data.Dataset{ds, ds, ds}}
	m := models.NewSoftmax(3, 2)
	if got := EstimateSigmaBar2(m, p, 3, 0.5, randx.New(3)); got > 1e-20 {
		t.Fatalf("identical shards should give σ̄²=0, got %v", got)
	}
}

func TestEstimateDelta(t *testing.T) {
	p, _ := blobPartition(4, 50, 3, 4, 32)
	m := models.NewSoftmax(3, 4)
	w0 := make([]float64, m.Dim())
	delta := EstimateDelta(m, p, w0, 30, 0.3)
	if delta <= 0 {
		t.Fatalf("descent should find a gap, got %v", delta)
	}
	// Gap bounded by the initial loss (loss is non-negative here).
	var initial float64
	weights := p.Weights()
	for i, shard := range p.Clients {
		initial += weights[i] * m.Loss(w0, shard, nil)
	}
	if delta > initial {
		t.Fatalf("gap %v exceeds initial loss %v", delta, initial)
	}
	// Zero steps → zero gap.
	if EstimateDelta(m, p, w0, 0, 0.3) != 0 {
		t.Fatal("no descent should mean no measured gap")
	}
}

// estimateL mirrors the facade's softmax smoothness estimate: mean ‖x‖²/2.
func estimateL(p *data.Partition) float64 {
	var sum float64
	var n int
	for _, shard := range p.Clients {
		for i := 0; i < shard.N(); i++ {
			x := shard.Sample(i)
			for _, v := range x {
				sum += v * v
			}
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / 2
}

// End-to-end theory validation: run FedProxVR, measure the realized local
// accuracy θ̂ and the task constants (L, σ̄², Δ), and verify that the
// measured stationarity satisfies the Theorem 1 / Corollary 1 bound
// (1/T)Σ‖∇F̄‖² ≤ Δ/(ΘT) with Θ computed at θ̂.
func TestTheorem1BoundHoldsEmpirically(t *testing.T) {
	p, _ := blobPartition(5, 60, 4, 4, 33)
	m := models.NewSoftmax(4, 4)

	l := estimateL(p)
	sigma2 := EstimateSigmaBar2(m, p, 4, 0.5, randx.New(4))
	prob := theory.Problem{L: l, Lambda: 0, SigmaBar2: sigma2}

	// Generous local effort at a large penalty so both θ̂ is small and the
	// federated factor is positive (μ must dominate L per Remark 2(3)).
	mu := 25 * l
	cfg := FedProxVR(optim.SARAH, 8, l, mu, 150, 16, 40)
	cfg.Seed = 34
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w0 := make([]float64, m.Dim())
	delta := EstimateDelta(m, p, w0, 50, 1/(2*l))

	// Measure the realized local accuracy before training moves the model.
	var thetaHat float64
	for id := range p.Clients {
		if th := r.LocalAccuracy(id); th > thetaHat {
			thetaHat = th
		}
	}
	if thetaHat >= prob.ThetaMax() {
		t.Skipf("realized θ̂=%v above the Θ>0 cap %v for σ̄²=%v; constants too pessimistic on this fixture",
			thetaHat, prob.ThetaMax(), sigma2)
	}
	fed := prob.FederatedFactor(thetaHat, mu)
	if fed <= 0 {
		t.Skipf("Θ=%v not positive at θ̂=%v, μ=%v", fed, thetaHat, mu)
	}

	series := r.Run()
	lhs := meanGradNormSq(series)
	rhs := delta / (fed * float64(cfg.Rounds))
	if lhs > rhs {
		t.Fatalf("Theorem 1 bound violated: measured %v > bound %v (θ̂=%v, Θ=%v, Δ=%v)",
			lhs, rhs, thetaHat, fed, delta)
	}
}

// meanGradNormSq returns (1/T)Σ_s ‖∇F̄(w̄^(s))‖², the left-hand side of the
// ε-accuracy criterion (12), over the points that measured stationarity: a
// NaN GradNormSq is a round that did not (a runtime without in-process
// devices), and counting it would poison the mean. NaN when no point
// measured it.
func meanGradNormSq(s *metrics.Series) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if !math.IsNaN(p.GradNormSq) {
			sum += p.GradNormSq
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func TestFromTheorySchedules(t *testing.T) {
	prob := theory.Problem{L: 1, Lambda: 0.5, SigmaBar2: 1}
	// SVRG's a-condition (65) caps its τ bound at ≈ 0.198β (vs SARAH's
	// O(β²)), so an SVRG schedule exists only when θ²·μ̃ ≳ 15L. Pick
	// constants inside that region so both estimators have schedules.
	theta := 0.3
	mu := 500.0
	sarah, err := FromTheory(optim.SARAH, prob, theta, mu, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	svrg, err := FromTheory(optim.SVRG, prob, theta, mu, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Remark 1(5): SVRG needs a larger β_min — hence a smaller step size —
	// than SARAH at the same target accuracy. (The remark's "and thus
	// larger τ" holds in the small-μ regime where the β² term dominates
	// the lower bound; at the large μ SVRG feasibility forces, the μ² term
	// dominates and the τ ordering can flip — see EXPERIMENTS.md.)
	if svrg.Local.Eta >= sarah.Local.Eta {
		t.Fatalf("SVRG η %v should be below SARAH η %v", svrg.Local.Eta, sarah.Local.Eta)
	}
	if svrg.Local.Tau < 1 || sarah.Local.Tau < 1 {
		t.Fatal("derived schedules must be runnable")
	}
	// Infeasible inputs are rejected.
	if _, err := FromTheory(optim.SARAH, prob, theta, 0.4 /* μ < λ */, 16, 10); err == nil {
		t.Fatal("μ ≤ λ should be rejected")
	}
	if _, err := FromTheory(optim.SGD, prob, theta, 2, 16, 10); err == nil {
		t.Fatal("SGD has no Lemma 1 schedule")
	}
	if _, err := FromTheory(optim.SARAH, theory.Problem{L: -1}, theta, 2, 16, 10); err == nil {
		t.Fatal("invalid problem should be rejected")
	}
}
