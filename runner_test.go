package fedproxvr

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/simnet"
	"fedproxvr/internal/testx"
)

// blobPartition builds a small heterogeneous classification task: each
// device holds samples from only 2 of the `classes` Gaussian blobs.
func blobPartition(devices, perDevice, dim, classes int, seed int64) (*data.Partition, *data.Dataset) {
	rng := randx.New(seed)
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		randx.NormalVec(rng, centers[c], 0, 3)
	}
	gen := func(n int, labels []int, r int64) *data.Dataset {
		g := randx.NewStream(seed, r)
		ds := data.New(dim, classes, n)
		x := make([]float64, dim)
		for i := 0; i < n; i++ {
			c := labels[i%len(labels)]
			for j := range x {
				x[j] = centers[c][j] + 0.7*g.NormFloat64()
			}
			ds.AppendClass(x, c)
		}
		return ds
	}
	p := &data.Partition{Clients: make([]*data.Dataset, devices)}
	for k := 0; k < devices; k++ {
		labels := []int{(2 * k) % classes, (2*k + 1) % classes}
		p.Clients[k] = gen(perDevice, labels, int64(k)+500)
	}
	all := make([]int, classes)
	for i := range all {
		all[i] = i
	}
	test := gen(devices*perDevice/2, all, 9999)
	return p, test
}

func TestRunnerConfigValidation(t *testing.T) {
	p, _ := blobPartition(2, 10, 3, 4, 1)
	m := models.NewSoftmax(3, 4, 0)
	bad := Config{Local: optim.LocalConfig{Eta: 0.1, Tau: 1, Batch: 1}, Rounds: 0}
	if _, err := NewRunner(Task{Model: m, Part: p}, bad); err == nil {
		t.Fatal("Rounds=0 should fail validation")
	}
	bad = Config{Local: optim.LocalConfig{Eta: 0, Tau: 1, Batch: 1}, Rounds: 1}
	if _, err := NewRunner(Task{Model: m, Part: p}, bad); err == nil {
		t.Fatal("Eta=0 should fail validation")
	}
	bad = Config{Local: optim.LocalConfig{Eta: 0.1, Tau: 1, Batch: 1}, Rounds: 1, ClientFraction: 2}
	if _, err := NewRunner(Task{Model: m, Part: p}, bad); err == nil {
		t.Fatal("ClientFraction>1 should fail validation")
	}
	if _, err := NewRunner(Task{Model: m, Part: &data.Partition{}}, FedAvg(5, 1, 1, 1, 1)); err == nil {
		t.Fatal("empty partition should fail")
	}
}

func TestFedProxVRTrainsHeterogeneousTask(t *testing.T) {
	p, test := blobPartition(10, 60, 5, 4, 2)
	m := models.NewSoftmax(5, 4, 0)
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.1, 10, 8, 30)
	cfg.Test = test
	cfg.Seed = 3
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	first := s.Points[0]
	last, _ := s.Last()
	if last.TrainLoss >= first.TrainLoss {
		t.Fatalf("training did not reduce loss: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAcc < 0.8 {
		t.Fatalf("test accuracy %v too low on separable blobs", last.TestAcc)
	}
}

func TestParallelMatchesSequentialExactly(t *testing.T) {
	p, _ := blobPartition(8, 40, 4, 4, 4)
	m := models.NewSoftmax(4, 4, 0)
	run := func(parallel bool) []float64 {
		cfg := FedProxVR(optim.SVRG, 7, 1, 0.1, 8, 8, 5)
		cfg.Parallel = parallel
		cfg.Seed = 5
		r, err := NewRunner(Task{Model: m, Part: p}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		return mathx.Clone(r.Global())
	}
	seq := run(false)
	par := run(true)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel diverges from sequential at %d: %v vs %v", i, par[i], seq[i])
		}
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	p, _ := blobPartition(5, 30, 4, 4, 6)
	m := models.NewSoftmax(4, 4, 0)
	cfg := FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 4)
	cfg.Seed = 7
	w := func() []float64 {
		r, err := NewRunner(Task{Model: m, Part: p}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		return mathx.Clone(r.Global())
	}
	a, b := w(), w()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("runs with identical seeds diverge")
		}
	}
}

func TestAggregationIsWeightedAverage(t *testing.T) {
	// With tau=0 every device does one full-gradient prox step from the
	// anchor; aggregation must equal the weighted average of those steps.
	p, _ := blobPartition(3, 20, 3, 4, 8)
	// Give devices unequal sizes.
	p.Clients[0] = p.Clients[0].Subset([]int{0, 1, 2, 3, 4})
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SVRG, 5, 1, 0.3, 0, 1, 1)
	cfg.Seed = 9
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	anchor := mathx.Clone(r.Global())
	r.Step()
	got := r.Global()

	weights := p.Weights()
	want := make([]float64, m.Dim())
	g := make([]float64, m.Dim())
	for k, shard := range p.Clients {
		m.Grad(g, anchor, shard, nil)
		// One prox step from the anchor: prox(anchor − η g) with the
		// closed form (anchor − ηg + ημ·anchor)/(1+ημ).
		eta, mu := cfg.Local.Eta, cfg.Local.Mu
		for i := range g {
			step := (anchor[i] - eta*g[i] + eta*mu*anchor[i]) / (1 + eta*mu)
			want[i] += weights[k] * step
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("aggregation mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestClientSampling(t *testing.T) {
	p, _ := blobPartition(10, 20, 3, 4, 10)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedAvg(5, 1, 3, 4, 2)
	cfg.ClientFraction = 0.3
	cfg.Seed = 11
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel := r.Step()
	if len(sel) != 3 {
		t.Fatalf("selected %d devices, want ceil(0.3*10)=3", len(sel))
	}
	seen := map[int]bool{}
	for _, id := range sel {
		if id < 0 || id >= 10 || seen[id] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[id] = true
	}
}

func TestStationarityTracking(t *testing.T) {
	p, _ := blobPartition(4, 30, 3, 4, 12)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.1, 5, 4, 10)
	cfg.Seed = 13
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	if s.Points[0].GradNormSq <= 0 {
		t.Fatal("initial gradient norm should be positive")
	}
	last, _ := s.Last()
	if last.GradNormSq >= s.Points[0].GradNormSq {
		t.Fatalf("stationarity gap did not shrink: %v -> %v",
			s.Points[0].GradNormSq, last.GradNormSq)
	}
	if math.IsNaN(meanGradNormSq(s)) {
		t.Fatal("mean gap NaN")
	}
}

func TestEvalEveryThinsSeries(t *testing.T) {
	p, _ := blobPartition(3, 20, 3, 4, 14)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedAvg(5, 1, 2, 4, 10)
	cfg.EvalEvery = 5
	cfg.Seed = 15
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	// Points at rounds 0, 5, 10.
	if len(s.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(s.Points))
	}
}

func TestLocalAccuracyCriterion(t *testing.T) {
	p, _ := blobPartition(3, 50, 4, 4, 16)
	m := models.NewSoftmax(4, 4, 0)
	// Generous local effort → strong local accuracy (small θ̂).
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.5, 200, 8, 1)
	cfg.Seed = 17
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	theta := r.LocalAccuracy(0)
	if theta >= 1 {
		t.Fatalf("local solve made no progress: θ̂=%v", theta)
	}
}

func TestGradEvalsMonotone(t *testing.T) {
	p, _ := blobPartition(3, 20, 3, 4, 18)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SVRG, 5, 1, 0.1, 3, 4, 4)
	cfg.Seed = 19
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	var prev int64 = -1
	for _, pt := range s.Points {
		if pt.GradEvals < prev {
			t.Fatal("gradient-eval counter decreased")
		}
		prev = pt.GradEvals
	}
	if prev == 0 {
		t.Fatal("no gradient evaluations recorded")
	}
}

func TestDropoutInjection(t *testing.T) {
	p, _ := blobPartition(10, 20, 3, 4, 20)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.1, 3, 4, 20)
	cfg.DropoutProb = 0.5
	cfg.Seed = 21
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 20; i++ {
		total += len(r.Step())
	}
	// With p=0.5 over 200 device-rounds, survivors should be well inside
	// (40, 160) with overwhelming probability.
	if total <= 40 || total >= 160 {
		t.Fatalf("dropout not injecting: %d/200 device-rounds survived", total)
	}
	// Training still converges with failures.
	if loss := r.Engine().Evaluator().Loss(r.Global()); loss >= math.Log(4) {
		t.Fatalf("no progress under dropout: loss %v", loss)
	}
}

func TestDropoutAllFailKeepsModel(t *testing.T) {
	p, _ := blobPartition(3, 20, 3, 4, 22)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SVRG, 5, 1, 0.1, 3, 4, 1)
	cfg.DropoutProb = 0.999999
	cfg.Seed = 23
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := mathx.Clone(r.Global())
	for i := 0; i < 5; i++ {
		if sel := r.Step(); len(sel) != 0 {
			// Extremely unlikely; if a device survives the model may move.
			return
		}
	}
	after := r.Global()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("model changed although every device dropped")
		}
	}
}

func TestDropoutValidation(t *testing.T) {
	p, _ := blobPartition(2, 10, 3, 4, 24)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedAvg(5, 1, 1, 1, 1)
	cfg.DropoutProb = 1
	if _, err := NewRunner(Task{Model: m, Part: p}, cfg); err == nil {
		t.Fatal("DropoutProb=1 should be rejected")
	}
	cfg.DropoutProb = -0.1
	if _, err := NewRunner(Task{Model: m, Part: p}, cfg); err == nil {
		t.Fatal("negative DropoutProb should be rejected")
	}
}

func TestRunnerWithReturnAveragePolicy(t *testing.T) {
	p, _ := blobPartition(4, 30, 3, 4, 26)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SVRG, 5, 1, 0.1, 8, 4, 10)
	cfg.Local.Return = optim.ReturnAverage
	cfg.Seed = 27
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	last, _ := s.Last()
	if last.TrainLoss >= s.Points[0].TrainLoss {
		t.Fatal("average-iterate policy failed to train")
	}
}

func TestRunnerWithRandomIteratePolicy(t *testing.T) {
	// Algorithm 1 line 10 (uniformly random iterate) must also converge.
	p, _ := blobPartition(4, 30, 3, 4, 28)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.1, 8, 4, 15)
	cfg.Local.Return = optim.ReturnRandom
	cfg.Seed = 29
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	last, _ := s.Last()
	if last.TrainLoss >= s.Points[0].TrainLoss {
		t.Fatal("random-iterate policy failed to train")
	}
}

func TestFedProxBaselineTrains(t *testing.T) {
	p, _ := blobPartition(4, 30, 3, 4, 30)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProx(5, 1, 0.5, 8, 4, 12)
	cfg.Seed = 31
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	last, _ := s.Last()
	if last.TrainLoss >= s.Points[0].TrainLoss {
		t.Fatal("FedProx baseline failed to train")
	}
}

// TestFSVRGBaselineTrains runs Federated SVRG (Konečný et al.), which is
// FedProxVR with the SVRG estimator and μ = 0.
func TestFSVRGBaselineTrains(t *testing.T) {
	p, _ := blobPartition(4, 30, 3, 4, 32)
	m := models.NewSoftmax(3, 4, 0)
	cfg := engine.FedProxVR(optim.SVRG, 5, 1, 0, 8, 4, 12)
	cfg.Seed = 33
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	last, _ := s.Last()
	if last.TrainLoss >= s.Points[0].TrainLoss {
		t.Fatal("FSVRG baseline failed to train")
	}
}

// dist returns ‖x − y‖.
func dist(x, y []float64) float64 {
	d := make([]float64, len(x))
	mathx.Sub(d, x, y)
	return mathx.Nrm2(d)
}

func TestDPClipBoundsRoundUpdate(t *testing.T) {
	p, _ := blobPartition(4, 30, 3, 4, 40)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SVRG, 5, 1, 0, 50, 8, 1)
	cfg.DPClip = 0.05
	cfg.Seed = 41
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := mathx.Clone(r.Global())
	r.Step()
	// The aggregate of clipped deltas has norm ≤ clip (convex combination).
	moved := dist(r.Global(), before)
	if moved > cfg.DPClip+1e-12 {
		t.Fatalf("round moved %v, clip bound %v", moved, cfg.DPClip)
	}
	// Without clipping the same round moves much further.
	cfg2 := cfg
	cfg2.DPClip = 0
	r2, err := NewRunner(Task{Model: m, Part: p}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	r2.Step()
	if dist(r2.Global(), before) < 2*cfg.DPClip {
		t.Fatal("fixture too tame: unclipped round barely moves")
	}
}

func TestDPNoiseInjectedDeterministically(t *testing.T) {
	p, _ := blobPartition(3, 20, 3, 4, 42)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.1, 5, 4, 3)
	cfg.DPClip = 1
	cfg.DPNoise = 0.5
	cfg.Seed = 43
	run := func() []float64 {
		r, err := NewRunner(Task{Model: m, Part: p}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		return mathx.Clone(r.Global())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DP noise must be seeded (runs diverged)")
		}
	}
	// Noise actually perturbs relative to the noiseless run.
	quiet := cfg
	quiet.DPNoise = 0
	rq, err := NewRunner(Task{Model: m, Part: p}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	rq.Run()
	if dist(a, rq.Global()) == 0 {
		t.Fatal("DPNoise>0 produced the noiseless trajectory")
	}
}

func TestDPTrainingStillConverges(t *testing.T) {
	p, test := blobPartition(6, 50, 4, 4, 44)
	m := models.NewSoftmax(4, 4, 0)
	cfg := FedProxVR(optim.SARAH, 5, 1, 0.1, 10, 8, 25)
	cfg.DPClip = 2
	cfg.DPNoise = 0.005
	cfg.Test = test
	cfg.Seed = 45
	r, err := NewRunner(Task{Model: m, Part: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Run()
	last, _ := s.Last()
	if last.TrainLoss >= s.Points[0].TrainLoss {
		t.Fatal("mild DP should still allow training")
	}
	if last.TestAcc < 0.7 {
		t.Fatalf("DP accuracy %v too low", last.TestAcc)
	}
}

func TestDPValidation(t *testing.T) {
	p, _ := blobPartition(2, 10, 3, 4, 46)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedAvg(5, 1, 1, 1, 1)
	cfg.DPClip = -1
	if _, err := NewRunner(Task{Model: m, Part: p}, cfg); err == nil {
		t.Fatal("negative DPClip should fail")
	}
	cfg = FedAvg(5, 1, 1, 1, 1)
	cfg.DPNoise = 0.1 // without clip
	if _, err := NewRunner(Task{Model: m, Part: p}, cfg); err == nil {
		t.Fatal("DPNoise without DPClip should fail")
	}
}

// TestNewRunnerRejectsMisSizedInitW: an initialization shorter or longer
// than the model is an error, not a silent truncation or zero-padding of
// the global model; one of the right size becomes the global model.
func TestNewRunnerRejectsMisSizedInitW(t *testing.T) {
	p, _ := blobPartition(2, 10, 3, 4, 48)
	m := models.NewSoftmax(3, 4, 0)
	cfg := FedAvg(5, 1, 1, 1, 1)
	for _, n := range []int{m.Dim() - 1, m.Dim() + 1} {
		if _, err := NewRunner(Task{Model: m, Part: p, InitW: make([]float64, n)}, cfg); err == nil {
			t.Fatalf("InitW of %d entries accepted for a %d-parameter model", n, m.Dim())
		}
	}
	w0 := make([]float64, m.Dim())
	for i := range w0 {
		w0[i] = float64(i + 1)
	}
	r, err := NewRunner(Task{Model: m, Part: p, InitW: w0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r.Global() {
		if v != w0[i] {
			t.Fatalf("global[%d] = %v, want the initialization's %v", i, v, w0[i])
		}
	}
}

// TestRunsStopTheirWorkerPools: every run the package starts and finishes
// — Train, a TrainContext cancelled before its first round, and the
// simulated-clock run behind the timing and straggler studies — leaves no
// goroutine behind: a Parallel run fans out over the process-wide helper
// pool and starts none of its own.
func TestRunsStopTheirWorkerPools(t *testing.T) {
	task := SyntheticTask(SyntheticOptions{Devices: 4, MinSamples: 20, MaxSamples: 40, Seed: 8})
	cfg := FedProxVR(SARAH, 5, task.L, 0.1, 2, 8, 2)
	cfg.Parallel = true
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	fleet := simnet.NewUniformFleet(4, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 8)
	run := func() {
		if _, _, err := Train(task, cfg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := TrainContext(cancelled, task, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v", err)
		}
		if _, err := trainTimed(task, cfg, fleet); err != nil {
			t.Fatal(err)
		}
	}
	run() // grows the process-wide helper pool
	testx.NoGoroutineGrowth(t, 5, 2*time.Second, run)
}
