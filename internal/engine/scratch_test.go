package engine_test

import (
	"context"
	"runtime"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/testx"
)

// TestDeviceHoldsNoModelSizedState: a device is data. 2 000 of them at the
// tcp8 workload's 7850 dimensions stay under 2 MB together (1 KB each);
// one dim-length vector per device would be 125 MB.
func TestDeviceHoldsNoModelSizedState(t *testing.T) {
	const n = 2000
	m := models.NewSoftmax(784, 10, 0)
	shard := data.New(784, 10, 0)
	devices := make([]*engine.Device, n)
	before := testx.LiveHeap()
	for i := range devices {
		devices[i] = engine.NewDevice(i, shard, m, 1)
	}
	grew := testx.LiveHeap() - before
	runtime.KeepAlive(devices)
	t.Logf("%d devices at dim %d: %d bytes live (%d per device)", n, m.Dim(), grew, grew/n)
	if grew >= 2<<20 {
		t.Fatalf("%d devices hold %d bytes: something model-sized is per device again", n, grew)
	}
}

// cnnCloneBytes is the live heap one evaluated clone of m holds — its
// GEMM/im2col workspace.
func cnnCloneBytes(m *models.NNModel, shard *data.Dataset) int64 {
	before := testx.LiveHeap()
	c := m.Clone()
	c.Grad(make([]float64, m.Dim()), make([]float64, m.Dim()), shard, nil)
	grew := testx.LiveHeap() - before
	runtime.KeepAlive(c)
	return grew
}

// TestParallelScratchIsPerWorker: after a full-participation round over 32
// thinned-CNN devices, an executor holds one model clone per goroutine that
// executes solves — at most two for Parallel at GOMAXPROCS 2, one for
// Sequential — plus the devices' dim-length report buffers, never one
// clone per device.
func TestParallelScratchIsPerWorker(t *testing.T) {
	const devices = 32
	m := models.NewPaperCNN(10, 8, 0)
	p := testPartition(devices, 4, 784, 10, 3)
	clone := cnnCloneBytes(m, p.Clients[0])
	local := optim.LocalConfig{Estimator: optim.SARAH, Eta: 0.01, Tau: 1, Batch: 2, Mu: 0.1}
	selected := make([]int, devices)
	for i := range selected {
		selected[i] = i
	}
	anchor := make([]float64, m.Dim())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	for _, tc := range []struct {
		name    string
		workers int
		mk      func([]*engine.Device) engine.Executor
	}{
		{"Parallel", 2, func(d []*engine.Device) engine.Executor { return engine.NewParallel(d, local) }},
		{"Sequential", 1, func(d []*engine.Device) engine.Executor { return engine.NewSequential(d, local) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := testx.LiveHeap()
			exec := tc.mk(newDevices(p, m, 7))
			var res engine.RoundResult
			spec := engine.RoundSpec{Round: 1, Anchor: anchor, Selected: selected}
			if err := exec.RunRound(context.Background(), spec, &res); err != nil {
				t.Fatal(err)
			}
			grew := testx.LiveHeap() - before
			runtime.KeepAlive(exec)
			t.Logf("%d devices, %d worker(s): %d bytes live, one clone is %d", devices, tc.workers, grew, clone)
			if limit := int64(tc.workers+1) * clone; grew > limit {
				t.Fatalf("executor holds %d bytes after a round, more than %d clones' worth (%d): "+
					"model scratch is per device, not per worker", grew, tc.workers+1, limit)
			}
		})
	}
}

// TestParallelCloseFreesWorkers: a Parallel executor owns no goroutine —
// its rounds run on the caller and the process-wide helpers — so 100
// executors that are built, run a round each and are dropped without
// Close leave no goroutine behind, with nothing to wait for.
func TestParallelCloseFreesWorkers(t *testing.T) {
	p := testPartition(4, 20, 5, 3, 1)
	m := models.NewSoftmax(5, 3, 0)
	local := conformanceConfigs()["full"].Local
	devices := newDevices(p, m, 1)
	anchor := make([]float64, m.Dim())
	round := func() {
		exec := engine.NewParallel(devices, local)
		var res engine.RoundResult
		spec := engine.RoundSpec{Round: 1, Anchor: anchor, Selected: []int{0, 1, 2, 3}}
		if err := exec.RunRound(context.Background(), spec, &res); err != nil {
			t.Fatal(err)
		}
	}
	round() // grows the process-wide pool to GOMAXPROCS
	testx.NoGoroutineGrowth(t, 100, 0, round)
}
