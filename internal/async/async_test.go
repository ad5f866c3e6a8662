package async

import (
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/simnet"
)

func blobPartition(devices, perDevice, dim, classes int, seed int64) *data.Partition {
	rng := randx.New(seed)
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		randx.NormalVec(rng, centers[c], 0, 3)
	}
	p := &data.Partition{Clients: make([]*data.Dataset, devices)}
	x := make([]float64, dim)
	for k := 0; k < devices; k++ {
		g := randx.NewStream(seed, int64(k)+100)
		ds := data.New(dim, classes, perDevice)
		for i := 0; i < perDevice; i++ {
			c := (k + i) % classes
			for j := range x {
				x[j] = centers[c][j] + 0.7*g.NormFloat64()
			}
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	return p
}

func asyncConfig(updates int) Config {
	return Config{
		Name: "async",
		Local: optim.LocalConfig{
			Estimator: optim.SARAH, Eta: 0.1, Tau: 10, Batch: 8, Mu: 0.5,
		},
		Updates:        updates,
		Alpha0:         0.6,
		StalenessPower: 0.5,
		Seed:           3,
	}
}

func TestAsyncValidation(t *testing.T) {
	p := blobPartition(3, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3, 0)
	fleet := simnet.NewUniformFleet(3, simnet.DeviceProfile{ComputePerIter: 0.01}, 1)

	bad := asyncConfig(0)
	if _, err := NewRunner(m, p, fleet, bad); err == nil {
		t.Fatal("Updates=0 should fail")
	}
	bad = asyncConfig(10)
	bad.Alpha0 = 0
	if _, err := NewRunner(m, p, fleet, bad); err == nil {
		t.Fatal("Alpha0=0 should fail")
	}
	bad = asyncConfig(10)
	bad.StalenessPower = -1
	if _, err := NewRunner(m, p, fleet, bad); err == nil {
		t.Fatal("negative staleness power should fail")
	}
	small := simnet.NewUniformFleet(1, simnet.DeviceProfile{ComputePerIter: 0.01}, 1)
	if _, err := NewRunner(m, p, small, asyncConfig(10)); err == nil {
		t.Fatal("undersized fleet should fail")
	}
	if _, err := NewRunner(m, &data.Partition{}, fleet, asyncConfig(10)); err == nil {
		t.Fatal("empty partition should fail")
	}
}

func TestAsyncConverges(t *testing.T) {
	p := blobPartition(4, 40, 3, 3, 2)
	m := models.NewSoftmax(3, 3, 0)
	fleet := simnet.NewUniformFleet(4, simnet.DeviceProfile{
		ComputePerIter: 0.001, Uplink: 0.01, Downlink: 0.01}, 2)
	r, err := NewRunner(m, p, fleet, asyncConfig(80))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := ts.Points[0].TrainLoss
	last := ts.Points[len(ts.Points)-1].TrainLoss
	if last >= first {
		t.Fatalf("async made no progress: %v -> %v", first, last)
	}
	if last > 0.5 {
		t.Fatalf("async final loss %v too high on separable blobs", last)
	}
	// Simulated clock advances monotonically.
	for i := 1; i < len(ts.Points); i++ {
		if ts.Points[i].Time < ts.Points[i-1].Time {
			t.Fatal("clock went backwards")
		}
	}
}

func TestAsyncDeterministic(t *testing.T) {
	p := blobPartition(3, 30, 3, 3, 4)
	m := models.NewSoftmax(3, 3, 0)
	fleet := simnet.NewHeterogeneousFleet(3, simnet.DeviceProfile{
		ComputePerIter: 0.002, Uplink: 0.01, Downlink: 0.01}, 5, 4)
	run := func() []float64 {
		r, err := NewRunner(m, p, fleet, asyncConfig(40))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, m.Dim())
		copy(out, r.w)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("async runs with identical seeds diverge")
		}
	}
}

func TestStalenessDecayDampsSlowDevice(t *testing.T) {
	// Two devices, one 50× slower, and the slow device holds the ONLY
	// samples of class 2. With strong staleness decay the slow device's
	// (very stale) updates barely land, so the global model learns class 2
	// worse than without decay.
	rng := randx.New(5)
	centers := [][]float64{{4, 0, 0}, {0, 4, 0}, {0, 0, 4}}
	mk := func(labels []int, n int, stream int64) *data.Dataset {
		g := randx.NewStream(5, stream)
		ds := data.New(3, 3, n)
		x := make([]float64, 3)
		for i := 0; i < n; i++ {
			c := labels[i%len(labels)]
			for j := range x {
				x[j] = centers[c][j] + 0.5*g.NormFloat64()
			}
			ds.AppendClass(x, c)
		}
		return ds
	}
	_ = rng
	p := &data.Partition{Clients: []*data.Dataset{
		mk([]int{0, 1}, 40, 1), // fast device: classes 0, 1
		mk([]int{2}, 40, 2),    // slow device: exclusive class 2
	}}
	m := models.NewSoftmax(3, 3, 0)
	fleet := simnet.NewUniformFleet(2, simnet.DeviceProfile{
		ComputePerIter: 0.001, Uplink: 0.01, Downlink: 0.01}, 5)
	fleet.Profiles[1].ComputePerIter *= 50

	impact := func(power float64) float64 {
		cfg := asyncConfig(60)
		cfg.StalenessPower = power
		r, err := NewRunner(m, p, fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		// Loss on the slow device's shard measures how much its (stale)
		// information made it into the global model.
		return m.Clone().Loss(r.w, p.Clients[1], nil)
	}
	noDecay := impact(0)
	strongDecay := impact(4)
	if strongDecay <= noDecay {
		t.Fatalf("staleness decay should damp the slow device: loss %v (p=4) vs %v (p=0)",
			strongDecay, noDecay)
	}
}

func TestAsyncBeatsSyncUnderStragglers(t *testing.T) {
	// The classic asynchrony win: with a 20×-spread fleet, synchronous
	// rounds are gated by the slowest device while async keeps fast
	// devices busy — async reaches the loss target in less simulated time.
	devices := 8
	p := blobPartition(devices, 40, 3, 3, 6)
	m := models.NewSoftmax(3, 3, 0)
	profile := simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.05, Downlink: 0.05}
	fleet := simnet.NewHeterogeneousFleet(devices, profile, 20, 7)
	target := 0.6

	// Synchronous baseline on the same fleet and local configuration.
	syncCfg := engine.Config{
		Name:   "sync",
		Local:  asyncConfig(1).Local,
		Rounds: 60,
		Seed:   8,
	}
	sr, _, err := engine.NewInProcess(m, p, syncCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	syncTS, err := simnet.Train(sr, fleet)
	if err != nil {
		t.Fatal(err)
	}
	syncTime := syncTS.TimeToLoss(target)
	if syncTime < 0 {
		t.Fatal("sync never reached the target")
	}

	aCfg := asyncConfig(60 * devices)
	aCfg.Seed = 8
	ar, err := NewRunner(m, p, fleet, aCfg)
	if err != nil {
		t.Fatal(err)
	}
	asyncTS, err := ar.Run()
	if err != nil {
		t.Fatal(err)
	}
	asyncTime := asyncTS.TimeToLoss(target)
	if asyncTime < 0 {
		t.Fatal("async never reached the target")
	}
	if asyncTime >= syncTime {
		t.Fatalf("async (%.2fs) should beat sync (%.2fs) under stragglers", asyncTime, syncTime)
	}
}
