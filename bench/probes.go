package main

import (
	"math"
	"os"
	"path/filepath"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/checkpoint"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/telemetry"
)

// Probes time one layer's public calls on their own, after the traced
// episode, on inputs of the workload's size.

// probeModels times the workload model's gradient on a fixed 32-row batch
// and its loss over the whole training partition (what evaluate calls).
func probeModels(raw map[string]float64, task fedproxvr.Task, w []float64) {
	m := task.Model.Clone()
	shard := task.Part.Clients[0]
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i % shard.N()
	}
	g := make([]float64, m.Dim())
	m.Grad(g, w, shard, idx)
	const reps = 50
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		m.Grad(g, w, shard, idx)
		times[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	raw["models.minibatch_grad_us"] = median(times)

	weights := task.Part.Weights()
	times = times[:5]
	for i := range times {
		t0 := time.Now()
		var loss float64
		for k, sh := range task.Part.Clients {
			loss += weights[k] * m.Loss(w, sh, nil)
		}
		times[i] = ms(time.Since(t0))
		sink = loss
	}
	raw["models.full_loss_ms"] = median(times)
}

var sink float64 // keeps probe results alive

// probeCheckpoint saves and loads a state of the workload's model size 50
// times in one directory under tmp.
func probeCheckpoint(raw map[string]float64, tmp string, global []float64, rounds int) error {
	dir, err := os.MkdirTemp(tmp, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ckpt")
	// One evaluated point per round, as a job checkpointing every round holds.
	points := make([]metrics.Point, rounds+1)
	for i := range points {
		points[i] = metrics.Point{Round: i, TrainLoss: 2.3 / float64(i+1), TestAcc: 0.5, GradEvals: int64(i) * 1000, Participants: 10}
	}
	st := &checkpoint.State{Name: "probe", Round: rounds, Seed: 1, Global: global, Points: points}
	const reps = 50
	save := make([]float64, reps)
	load := make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := checkpoint.Save(path, st); err != nil {
			return err
		}
		save[i] = ms(time.Since(t0))
		t0 = time.Now()
		if _, err := checkpoint.Load(path); err != nil {
			return err
		}
		load[i] = ms(time.Since(t0))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	raw["checkpoint.save_ms"] = median(save)
	raw["checkpoint.load_ms"] = median(load)
	raw["checkpoint.bytes"] = float64(fi.Size())
	return nil
}

// probeTelemetry ingests a round record of the workload's cohort size 10k
// times into a fresh store (the write side) and range-queries the full
// ring (the read side of the same store).
func probeTelemetry(raw map[string]float64, devices int, loss float64) {
	rs := &obs.RoundStats{
		Participants: devices, ExecSeconds: 0.005, EvalSeconds: 0.002,
		Eval:    &obs.EvalStats{TrainLoss: loss, TestAcc: 0.5, GradNormSq: math.NaN()},
		Clients: make([]obs.ClientStat, devices),
	}
	for i := range rs.Clients {
		rs.Clients[i] = obs.ClientStat{ID: i, Seconds: 0.001 * float64(i+1), SolveSeconds: 0.001 * float64(i+1)}
	}
	js := telemetry.NewHub(telemetry.Options{}).Job("probe")
	const writes = 10000
	t0 := time.Now()
	for i := 1; i <= writes; i++ {
		rs.Round = i
		js.RecordRound(rs)
	}
	raw["telemetry.record_round_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / writes
	const reads = 200
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		sink += float64(len(js.Series(writes-400, writes-100, 256)))
	}
	raw["telemetry.series_query_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / reads
}

// probeSpeedup runs a few rounds of the same configuration on the
// Sequential executor with stats on and returns its median execute phase:
// the single-worker baseline of engine.parallel_speedup.
func probeSpeedup(s *engineSystem) (float64, error) {
	cfg := s.config(false)
	cfg.Rounds = min(20, s.sz.rounds)
	cfg.EvalEvery = cfg.Rounds
	r, err := fedproxvr.NewRunner(s.task, cfg)
	if err != nil {
		return 0, err
	}
	rec := &tracing{}
	r.Engine().SetStats(rec)
	r.Run()
	var exec []float64
	for _, rr := range rec.recs[min(2, len(rec.recs)-1):] {
		exec = append(exec, rr.exec*1000)
	}
	return median(exec), nil
}
