package simnet

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
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

func TestMeanGamma(t *testing.T) {
	p := DeviceProfile{ComputePerIter: 0.002, Uplink: 0.1, Downlink: 0.1}
	f := NewUniformFleet(4, p, 1)
	if math.Abs(f.MeanGamma()-0.01) > 1e-12 {
		t.Fatalf("mean gamma = %v", f.MeanGamma())
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
	ts, err := Train(r, fleet, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 12 rounds × (1 + 10·0.01) = 13.2 simulated seconds.
	if math.Abs(ts.TotalTime()-13.2) > 1e-9 {
		t.Fatalf("total time = %v, want 13.2", ts.TotalTime())
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
	if ts.TimeToAcc(2) != -1 {
		t.Fatal("unreachable acc should be -1")
	}
}

func TestTimedTrainValidations(t *testing.T) {
	r := timedFixture(t)
	small := NewUniformFleet(2, DeviceProfile{ComputePerIter: 0.01}, 8)
	if _, err := Train(r, small, 1); err == nil {
		t.Fatal("fleet smaller than device count should error")
	}
	bad := NewUniformFleet(4, DeviceProfile{ComputePerIter: -1}, 8)
	if _, err := Train(r, bad, 1); err == nil {
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
		ts, err := Train(r2, fleet, 1)
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
// Train hardcoded TestAcc to NaN, so TimedSeries.TimeToAcc always returned
// −1 and the paper's time-to-accuracy comparisons were impossible.
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
	ts, err := Train(r, fleet, 1)
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
	if tt := ts.TimeToAcc(0.5); tt < 0 {
		t.Fatal("TimeToAcc(0.5) = -1: accuracy never measured")
	}
	if ts.TimeToAcc(1.01) != -1 {
		t.Fatal("unreachable accuracy should still be -1")
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
