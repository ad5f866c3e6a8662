package async

import (
	"math"
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
		Local: optim.LocalConfig{
			Estimator: optim.SARAH, Eta: 0.1, Tau: 10, Batch: 8, Mu: 0.5,
		},
		Updates: updates,
		Seed:    3,
	}
}

func TestAsyncValidation(t *testing.T) {
	p := blobPartition(3, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	fleet := simnet.NewUniformFleet(3, simnet.DeviceProfile{ComputePerIter: 0.01}, 1)

	bad := asyncConfig(0)
	if _, err := NewRunner(m, p, fleet, bad); err == nil {
		t.Fatal("Updates=0 should fail")
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
	m := models.NewSoftmax(3, 3)
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

// TestAsyncGapUnmeasured: the async evaluator has no in-process devices
// to fold ‖∇F̄‖² from, so every point records the gap as NaN, never a 0
// that reads as converged.
func TestAsyncGapUnmeasured(t *testing.T) {
	p := blobPartition(3, 20, 3, 3, 4)
	fleet := simnet.NewUniformFleet(3, simnet.DeviceProfile{ComputePerIter: 0.001}, 4)
	r, err := NewRunner(models.NewSoftmax(3, 3), p, fleet, asyncConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range ts.Points {
		if !math.IsNaN(pt.GradNormSq) {
			t.Fatalf("version %d: GradNormSq = %v, want NaN", pt.Round, pt.GradNormSq)
		}
	}
}

func TestAsyncDeterministic(t *testing.T) {
	p := blobPartition(3, 30, 3, 3, 4)
	m := models.NewSoftmax(3, 3)
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

func TestAsyncBeatsSyncUnderStragglers(t *testing.T) {
	// The classic asynchrony win: with a 20×-spread fleet, synchronous
	// rounds are gated by the slowest device while async keeps fast
	// devices busy — async reaches the loss target in less simulated time.
	devices := 8
	p := blobPartition(devices, 40, 3, 3, 6)
	m := models.NewSoftmax(3, 3)
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
