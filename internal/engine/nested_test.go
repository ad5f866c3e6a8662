package engine_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
)

// within fails t unless f returns within d: a nested fan-out that
// deadlocks fails the test instead of hanging the package.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not finish within %v", d)
	}
}

// TestNestedFanOut runs the two in-process fan-outs whose tasks fan out
// again, through the one process-wide pool, at GOMAXPROCS 1, 2 and 4:
//   - a Parallel round over thinned-CNN devices, whose solves run conv
//     GEMMs above the kernel fan-out threshold, against Sequential;
//   - an Evaluator.Measure with Devices over the same model, whose LossGrad
//     tasks do the same, against the inline measurement at GOMAXPROCS 1.
//
// Each must finish in time and match its reference bit for bit.
func TestNestedFanOut(t *testing.T) {
	m := models.NewPaperCNN(10, 8, 0)
	p := testPartition(4, 40, 784, 10, 5)
	cfg := conformanceConfigs()["full"]
	cfg.Local.Eta, cfg.Local.Tau, cfg.Local.Batch = 0.01, 2, 8 // 8-sample convs clear the threshold
	cfg.Rounds = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	t.Run("ParallelRound", func(t *testing.T) {
		want, _ := runBackend(t, cfg, p, m, func(d []*engine.Device) engine.Executor { return engine.NewSequential(d, cfg.Local) })
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var got []float64
			within(t, time.Minute, func() {
				got, _ = runBackend(t, cfg, p, m, func(d []*engine.Device) engine.Executor { return engine.NewParallel(d, cfg.Local) })
			})
			if !sameVec(got, want) {
				t.Fatalf("GOMAXPROCS=%d: Parallel global model differs from Sequential", procs)
			}
		}
	})

	t.Run("EvaluatorLossGrad", func(t *testing.T) {
		w := make([]float64, m.Dim())
		m.InitParams(randx.New(3), w)
		measure := func() (metrics.Point, [][]float64) {
			devices := newDevices(p, m, cfg.Seed)
			ev := &engine.Evaluator{Model: m.Clone(), Clients: p.Clients, Weights: p.Weights(), Test: p.Clients[0], Devices: devices}
			var pt metrics.Point
			within(t, time.Minute, func() { pt = ev.Measure(w, 1) })
			v0 := make([][]float64, len(devices))
			for i, d := range devices {
				v0[i] = d.HandedOver(1)
			}
			return pt, v0
		}
		runtime.GOMAXPROCS(1)
		want, wantV0 := measure()
		if math.IsNaN(want.GradNormSq) {
			t.Fatal("the inline measurement measured no gap")
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, gotV0 := measure()
			if !sameBits(got.TrainLoss, want.TrainLoss) || !sameBits(got.TestAcc, want.TestAcc) || !sameBits(got.GradNormSq, want.GradNormSq) {
				t.Fatalf("GOMAXPROCS=%d: Measure = %+v, inline %+v", procs, got, want)
			}
			for i := range gotV0 {
				if !sameVec(gotV0[i], wantV0[i]) {
					t.Fatalf("GOMAXPROCS=%d: device %d was handed another v⁰", procs, i)
				}
			}
		}
	})
}
