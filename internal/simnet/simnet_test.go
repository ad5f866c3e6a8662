package simnet

import (
	"context"
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/trace"
)

func TestDeviceProfileDerived(t *testing.T) {
	p := DeviceProfile{ComputePerIter: 0.002, Uplink: 0.15, Downlink: 0.05}
	if p.DCom() != 0.2 {
		t.Fatalf("DCom = %v", p.DCom())
	}
	if p.Gamma() != 0.01 {
		t.Fatalf("Gamma = %v", p.Gamma())
	}
	if (DeviceProfile{}).Gamma() != 0 {
		t.Fatal("zero profile gamma should be 0")
	}
}

func TestUniformFleetRoundTimeDeterministic(t *testing.T) {
	p := DeviceProfile{ComputePerIter: 0.01, Uplink: 1, Downlink: 1}
	f := NewUniformFleet(5, p, 1)
	ids := []int{0, 1, 2, 3, 4}
	// No jitter, no stragglers: exact 2 + 10*0.01 = 2.1.
	if got := f.RoundTime(ids, 10); math.Abs(got-2.1) > 1e-12 {
		t.Fatalf("round time = %v, want 2.1", got)
	}
	// Monotone in tau.
	if f.RoundTime(ids, 20) <= f.RoundTime(ids, 10) {
		t.Fatal("round time must grow with tau")
	}
}

func TestHeterogeneousFleetSpread(t *testing.T) {
	p := DeviceProfile{ComputePerIter: 0.01, Uplink: 0.1, Downlink: 0.1}
	f := NewHeterogeneousFleet(200, p, 10, 2)
	min, max := math.Inf(1), math.Inf(-1)
	for _, q := range f.Profiles {
		min = math.Min(min, q.ComputePerIter)
		max = math.Max(max, q.ComputePerIter)
	}
	if min < 0.01-1e-12 || max > 0.1+1e-12 {
		t.Fatalf("spread outside [0.01, 0.1]: [%v, %v]", min, max)
	}
	if max/min < 3 {
		t.Fatalf("fleet not actually heterogeneous: ratio %v", max/min)
	}
	// spread < 1 treated as 1.
	u := NewHeterogeneousFleet(5, p, 0.5, 3)
	for _, q := range u.Profiles {
		if q.ComputePerIter != p.ComputePerIter {
			t.Fatal("spread<1 should not alter profiles")
		}
	}
}

func TestStragglersIncreaseRoundTime(t *testing.T) {
	p := DeviceProfile{ComputePerIter: 0.01, Uplink: 0.1, Downlink: 0.1}
	base := NewUniformFleet(50, p, 4)
	slow := NewUniformFleet(50, p, 4)
	slow.StragglerFraction = 0.3
	slow.StragglerFactor = 10
	ids := make([]int, 50)
	for i := range ids {
		ids[i] = i
	}
	var baseSum, slowSum float64
	for r := 0; r < 20; r++ {
		baseSum += base.RoundTime(ids, 10)
		slowSum += slow.RoundTime(ids, 10)
	}
	if slowSum <= baseSum*2 {
		t.Fatalf("stragglers barely slowed rounds: %v vs %v", slowSum, baseSum)
	}
}

func TestFleetValidate(t *testing.T) {
	p := DeviceProfile{ComputePerIter: 0.01}
	good := NewUniformFleet(3, p, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Fleet{}).Validate(); err == nil {
		t.Fatal("empty fleet should be invalid")
	}
	bad := NewUniformFleet(3, DeviceProfile{ComputePerIter: -1}, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("negative delay should be invalid")
	}
	frac := NewUniformFleet(3, p, 1)
	frac.StragglerFraction = 2
	if err := frac.Validate(); err == nil {
		t.Fatal("fraction > 1 should be invalid")
	}
	fac := NewUniformFleet(3, p, 1)
	fac.StragglerFraction = 0.5
	fac.StragglerFactor = 0.5
	if err := fac.Validate(); err == nil {
		t.Fatal("factor < 1 should be invalid")
	}
}

// simple classification fixture for the timed runner.
func timedFixture(t *testing.T) *engine.Engine {
	t.Helper()
	rng := randx.New(5)
	p := &data.Partition{Clients: make([]*data.Dataset, 4)}
	x := make([]float64, 3)
	for k := range p.Clients {
		ds := data.New(3, 3, 30)
		for i := 0; i < 30; i++ {
			c := (k + i) % 3
			randx.NormalVec(rng, x, float64(c)*2, 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	m := models.NewSoftmax(3, 3, 0)
	cfg := engine.FedProxVR(optim.SARAH, 5, 1, 0.1, 10, 8, 12)
	cfg.Seed = 6
	r, _, err := engine.NewInProcess(m, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTimedTrainAdvancesClock(t *testing.T) {
	r := timedFixture(t)
	fleet := NewUniformFleet(4, DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
	ts, err := Train(r, fleet)
	if err != nil {
		t.Fatal(err)
	}
	// 12 rounds × (1 + 10·0.01) = 13.2 simulated seconds.
	if total := ts.Points[len(ts.Points)-1].Time; math.Abs(total-13.2) > 1e-9 {
		t.Fatalf("total time = %v, want 13.2", total)
	}
	// Times strictly increasing, loss improving.
	for i := 1; i < len(ts.Points); i++ {
		if ts.Points[i].Time <= ts.Points[i-1].Time {
			t.Fatal("clock not monotone")
		}
	}
	if ts.Points[len(ts.Points)-1].TrainLoss >= ts.Points[0].TrainLoss {
		t.Fatal("no training progress under the clock")
	}
	if ts.TimeToLoss(ts.Points[0].TrainLoss) != 0 {
		t.Fatal("TimeToLoss at initial loss should be 0")
	}
	if ts.TimeToLoss(-1) != -1 {
		t.Fatal("unreachable loss should be -1")
	}
}

func TestTimedTrainValidations(t *testing.T) {
	r := timedFixture(t)
	small := NewUniformFleet(2, DeviceProfile{ComputePerIter: 0.01}, 8)
	if _, err := Train(r, small); err == nil {
		t.Fatal("fleet smaller than device count should error")
	}
	bad := NewUniformFleet(4, DeviceProfile{ComputePerIter: -1}, 8)
	if _, err := Train(r, bad); err == nil {
		t.Fatal("invalid fleet should error")
	}
}

// The Section 4.3 claim, measured: on a slow network (small γ), running
// more local iterations per round reaches the loss target in less
// simulated time, even though per-round cost is higher.
func TestSlowNetworkFavoursMoreLocalWork(t *testing.T) {
	target := 0.35
	timeFor := func(tau int) float64 {
		r := timedFixture(t)
		cfg := r.Config()
		cfg.Local.Tau = tau
		cfg.Rounds = 60
		r2, _, err := engine.NewInProcess(models.NewSoftmax(3, 3, 0), partitionOf(t, r), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Slow network: d_com = 2s, d_cmp = 1ms → γ = 5e-4.
		fleet := NewUniformFleet(4, DeviceProfile{ComputePerIter: 0.001, Uplink: 1, Downlink: 1}, 9)
		ts, err := Train(r2, fleet)
		if err != nil {
			t.Fatal(err)
		}
		tt := ts.TimeToLoss(target)
		if tt < 0 {
			t.Fatalf("tau=%d never reached loss %v", tau, target)
		}
		return tt
	}
	little := timeFor(2)
	lots := timeFor(30)
	if lots >= little {
		t.Fatalf("on a slow network τ=30 (%vs) should beat τ=2 (%vs)", lots, little)
	}
}

// partitionOf rebuilds the fixture partition for a fresh engine.
func partitionOf(t *testing.T, r *engine.Engine) *data.Partition {
	t.Helper()
	return &data.Partition{Clients: r.Evaluator().Clients}
}

// TestTimedTrainMeasuresAccuracy: with cfg.Test set, the timed runner must
// measure test accuracy through the engine's Evaluator — the historical
// Train hardcoded TestAcc to NaN, which made the paper's time-to-accuracy
// comparisons impossible.
func TestTimedTrainMeasuresAccuracy(t *testing.T) {
	rng := randx.New(5)
	p := &data.Partition{Clients: make([]*data.Dataset, 4)}
	test := data.New(3, 3, 60)
	x := make([]float64, 3)
	for k := range p.Clients {
		ds := data.New(3, 3, 30)
		for i := 0; i < 30; i++ {
			c := (k + i) % 3
			randx.NormalVec(rng, x, float64(c)*2, 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	for i := 0; i < 60; i++ {
		c := i % 3
		randx.NormalVec(rng, x, float64(c)*2, 0.5)
		test.AppendClass(x, c)
	}
	m := models.NewSoftmax(3, 3, 0)
	cfg := engine.FedProxVR(optim.SARAH, 5, 1, 0.1, 10, 8, 12)
	cfg.Seed = 6
	cfg.Test = test
	cfg.TrackStationarity = true
	r, _, err := engine.NewInProcess(m, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewUniformFleet(4, DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
	ts, err := Train(r, fleet)
	if err != nil {
		t.Fatal(err)
	}
	last := ts.Points[len(ts.Points)-1]
	if math.IsNaN(last.TestAcc) {
		t.Fatal("TestAcc is NaN despite cfg.Test being set")
	}
	if last.TestAcc <= 0.5 || last.TestAcc > 1 {
		t.Fatalf("implausible final accuracy %v on a separable fixture", last.TestAcc)
	}
	if last.GradNormSq <= 0 {
		t.Fatal("TrackStationarity should record a positive gradient norm")
	}
	if last.GradEvals <= 0 {
		t.Fatal("timed points should carry cumulative gradient evaluations")
	}
	if last.Participants != 4 {
		t.Fatalf("full participation fixture reported %d participants", last.Participants)
	}
}

// TestTimedTrainTracesLikeRun: a traced simulated-clock run has the span
// tree of every other backend — one run span over the rounds, and one
// evaluate span per measured round, round 0 included.
func TestTimedTrainTracesLikeRun(t *testing.T) {
	r := timedFixture(t)
	tr := trace.New("test")
	r.SetTracer(tr)
	fleet := NewUniformFleet(4, DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
	if _, err := Train(r, fleet); err != nil {
		t.Fatal(err)
	}
	roots, evals := 0, 0
	for _, sp := range tr.Spans() {
		if sp.Parent == 0 {
			roots++
		}
		if sp.Name == "evaluate" {
			evals++
		}
	}
	if want := r.Config().Rounds + 1; roots != 1 || evals != want {
		t.Fatalf("%d root spans and %d evaluate spans, want one run span and %d", roots, evals, want)
	}
}

// TestTimedTrainCallsRoundHooks: a hook registered before Train sees every
// round of the simulated-clock run, in order.
func TestTimedTrainCallsRoundHooks(t *testing.T) {
	r := timedFixture(t)
	var rounds []int
	r.OnRound(func(info engine.RoundInfo) error {
		rounds = append(rounds, info.Round)
		return nil
	})
	fleet := NewUniformFleet(4, DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
	if _, err := Train(r, fleet); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != r.Config().Rounds {
		t.Fatalf("hook saw rounds %v, want 1..%d", rounds, r.Config().Rounds)
	}
	for i, round := range rounds {
		if round != i+1 {
			t.Fatalf("hook saw rounds %v, want 1..%d", rounds, r.Config().Rounds)
		}
	}
}

// roundSpy records the round number of every spec it forwards.
type roundSpy struct {
	inner  engine.Executor
	rounds []int
}

func (s *roundSpy) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	s.rounds = append(s.rounds, spec.Round)
	return s.inner.RunRound(ctx, spec, res)
}

// TestTimedTrainResumed: on an engine resumed at round k, Train runs the
// remaining rounds k+1..Rounds — the executor sees those numbers and the
// points carry them, with the clock starting at the resumed round — and
// hands the engine its executor back.
func TestTimedTrainResumed(t *testing.T) {
	const k = 5
	r := timedFixture(t)
	rounds := r.Config().Rounds
	r.Resume(k, nil)
	spy := &roundSpy{inner: r.Executor()}
	r.SetExecutor(spy)
	fleet := NewUniformFleet(4, DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
	ts, err := Train(r, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if r.Executor() != engine.Executor(spy) {
		t.Fatal("Train did not restore the engine's executor")
	}
	if len(spy.rounds) != rounds-k || len(ts.Points) != rounds-k {
		t.Fatalf("executor saw rounds %v and the series has %d points, want rounds %d..%d",
			spy.rounds, len(ts.Points), k+1, rounds)
	}
	for i, p := range ts.Points {
		if spy.rounds[i] != k+1+i || p.Round != k+1+i {
			t.Fatalf("round %d: executor saw %d, point numbered %d", k+1+i, spy.rounds[i], p.Round)
		}
		// 1 s of transfer plus 10 iterations of 10 ms per round.
		if want := float64(i+1) * 1.1; math.Abs(p.Time-want) > 1e-9 {
			t.Fatalf("round %d at %v simulated seconds, want %v", p.Round, p.Time, want)
		}
	}
}
