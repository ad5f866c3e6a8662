package engine_test

import (
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
)

// BenchmarkEngineRoundAllocs measures steady-state per-round allocations of
// the pooled parallel executor: the worker pool, the locals buffer and the
// selection buffer are all reused across rounds, so a round allocates O(1)
// (the WaitGroup escaping into the job structs) — versus the historical
// per-Step `make([][]float64, n)` + goroutine-per-device fan-out.
func BenchmarkEngineRoundAllocs(b *testing.B) {
	p := testPartition(8, 40, 5, 3, 1)
	m := models.NewSoftmax(5, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 1 << 30 // stepped manually; never reached

	devices := make([]*engine.Device, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
	}
	exec := engine.NewParallel(devices, cfg.Local, 0)
	defer exec.Close()
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
	m := models.NewSoftmax(5, 3, 0)
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
	cfg := data.SyntheticConfig{NumDevices: 100, Dim: 60, NumClasses: 10,
		Alpha: 1, Beta: 1, MinSamples: 37, MaxSamples: 1600, Seed: 1}
	part := data.GenerateSynthetic(cfg)
	tests := make([]*data.Dataset, len(part.Clients))
	for k, shard := range part.Clients {
		part.Clients[k], tests[k] = shard.Split(0.75, int64(k))
	}
	m := models.NewSoftmax(cfg.Dim, cfg.NumClasses, 0)
	ev := &engine.Evaluator{Model: m, Clients: part.Clients, Weights: part.Weights(), Test: data.Merge(tests...)}
	w := make([]float64, m.Dim())
	sinkPoint = ev.Measure(w, false) // build the helpers' clones
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = ev.Measure(w, false)
	}
}
