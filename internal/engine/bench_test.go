package engine_test

import (
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
)

// BenchmarkEngineRoundAllocs measures steady-state per-round allocations of
// the parallel executor: the fan-out state, the scratches, the locals
// buffer and the selection buffer are all reused across rounds, so a round
// allocates O(1) — versus the historical per-Step `make([][]float64, n)` +
// goroutine-per-device fan-out.
func BenchmarkEngineRoundAllocs(b *testing.B) {
	p := testPartition(8, 40, 5, 3, 1)
	m := models.NewSoftmax(5, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 1 << 30 // stepped manually; never reached

	devices := make([]*engine.Device, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
	}
	exec := engine.NewParallel(devices, cfg.Local)
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), exec)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := eng.Step(); err != nil { // warm the reusable buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialRoundAllocs is the sequential baseline for the same
// round (no pool, no goroutines, same reused buffers).
func BenchmarkSequentialRoundAllocs(b *testing.B) {
	p := testPartition(8, 40, 5, 3, 1)
	m := models.NewSoftmax(5, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 1 << 30

	devices := make([]*engine.Device, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
	}
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(devices, cfg.Local))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkPoint metrics.Point

// BenchmarkEvaluatorMeasure is one server-side measurement of the paper's
// convex scenario: the 610-parameter softmax over 100 power-law training
// shards plus a 15 k-row test set (each Synthetic(1,1) shard split 75/25),
// loss and accuracy in one fan-out. Steady state allocates nothing.
func BenchmarkEvaluatorMeasure(b *testing.B) {
	cfg := data.SyntheticConfig{NumDevices: 100,
		Alpha: 1, Beta: 1, MinSamples: 37, MaxSamples: 1600, Seed: 1}
	part, test := data.GenerateSynthetic(cfg)
	m := models.NewSoftmax(60, 10)
	ev := &engine.Evaluator{Model: m, Clients: part.Clients, Weights: part.Weights(), Test: test}
	w := make([]float64, m.Dim())
	sinkPoint = ev.Measure(w, 0) // build the helpers' clones
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = ev.Measure(w, 0)
	}
}

// BenchmarkEvaluatorMeasureHandOver is BenchmarkEvaluatorMeasure with
// each shard's device: each shard's loss comes from one LossGrad pass that
// leaves the device its v⁰, and the gap ‖∇F̄‖² is folded from those
// gradients. The hand-over buffers are allocated by the first measurement;
// steady state allocates nothing.
func BenchmarkEvaluatorMeasureHandOver(b *testing.B) {
	cfg := data.SyntheticConfig{NumDevices: 100,
		Alpha: 1, Beta: 1, MinSamples: 37, MaxSamples: 1600, Seed: 1}
	part, test := data.GenerateSynthetic(cfg)
	m := models.NewSoftmax(60, 10)
	devices := make([]*engine.Device, len(part.Clients))
	for i, shard := range part.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
	}
	ev := &engine.Evaluator{Model: m, Clients: part.Clients, Weights: part.Weights(), Test: test, Devices: devices}
	w := make([]float64, m.Dim())
	sinkPoint = ev.Measure(w, 1) // clones and hand-over buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = ev.Measure(w, 1)
	}
}
