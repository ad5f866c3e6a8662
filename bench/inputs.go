package main

import (
	"fmt"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/jobs"
	"fedproxvr/internal/randx"
)

// dataSeed generates every workload's dataset. The problem instance is the
// same for every -seed, so convergence numbers (rounds to target, final
// loss) compare across seeds; what -seed changes is listed per workload in
// README.md.
const dataSeed = 2020

// sizing is one workload's fixed shape: round counts and data sizes are
// the same on every commit and for every seed.
type sizing struct {
	rounds    int     // global iterations of one episode
	traced    int     // if set, the rounds of the traced run's single episode
	warmup    int     // leading rounds kept out of the percentiles
	target    float64 // train loss a run must reach inside the budget
	smoothL   float64 // smoothness constant L of the step size 1/(beta*L)
	devices   int
	shardLo   int // shard sizes the generator draws between (power law)
	shardHi   int
	perClass  int // image tasks: generated samples per class
	tau       int
	batch     int
	evalEvery int
	topkBound float64 // tcp8_topk: allowed final-loss excess over the exact run
}

// sizings[scale][workload]. "full" is what BENCHMARK.json measures; "tiny"
// is the few-second smoke test's.
var sizings = map[string]map[string]sizing{
	"full": {
		"convex100": {rounds: 55, traced: 155, warmup: 5, target: 1.7, smoothL: 60, devices: 100, shardLo: 37, shardHi: 1600, tau: 20, batch: 32, evalEvery: 1},
		"cnn10":     {rounds: 40, traced: 105, warmup: 5, target: 1.0, smoothL: 2, devices: 10, shardLo: 12, shardHi: 24, perClass: 40, tau: 2, batch: 8, evalEvery: 5},
		"tcp8_f64":  {rounds: 205, warmup: 5, target: 1.75, smoothL: 74, devices: 8, shardLo: 30, shardHi: 60, perClass: 80, tau: 2, batch: 8, evalEvery: 5},
		"tcp8_topk": {rounds: 205, warmup: 5, target: 1.75, smoothL: 74, devices: 8, shardLo: 30, shardHi: 60, perClass: 80, tau: 2, batch: 8, evalEvery: 5, topkBound: 0.5},
		"jobs3":     {rounds: 130, traced: 400, warmup: 5, target: 0.62, devices: 10, tau: 10, batch: 16},
	},
	"tiny": {
		"convex100": {rounds: 12, warmup: 2, target: 1e9, smoothL: 60, devices: 10, shardLo: 20, shardHi: 60, tau: 4, batch: 8, evalEvery: 1},
		"cnn10":     {rounds: 12, warmup: 2, target: 1e9, smoothL: 2, devices: 3, shardLo: 8, shardHi: 12, perClass: 12, tau: 2, batch: 4, evalEvery: 5},
		"tcp8_f64":  {rounds: 24, warmup: 2, target: 1e9, smoothL: 74, devices: 3, shardLo: 10, shardHi: 20, perClass: 12, tau: 2, batch: 4, evalEvery: 6},
		"tcp8_topk": {rounds: 24, warmup: 2, target: 1e9, smoothL: 74, devices: 3, shardLo: 10, shardHi: 20, perClass: 12, tau: 2, batch: 4, evalEvery: 6, topkBound: 10},
		"jobs3":     {rounds: 12, warmup: 2, target: 1e9, devices: 3, tau: 2, batch: 8},
	},
}

// buildTask generates the workload's task through the facade's own
// builders.
func buildTask(name string, sz sizing) (fedproxvr.Task, error) {
	switch name {
	case "convex100":
		// Sizes are drawn before the builder's 25% hold-out.
		return fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{
			Devices: sz.devices, MinSamples: sz.shardLo, MaxSamples: sz.shardHi, Seed: dataSeed}), nil
	case "cnn10":
		return fedproxvr.CNNTask(fedproxvr.ImageOptions{
			Style: fedproxvr.Digits, Devices: sz.devices, SamplesPerClass: sz.perClass,
			MinSamples: sz.shardLo, MaxSamples: sz.shardHi, Seed: dataSeed}, 8)
	case "tcp8_f64", "tcp8_topk":
		return fedproxvr.ImageTask(fedproxvr.ImageOptions{
			Style: fedproxvr.Fashion, Devices: sz.devices, SamplesPerClass: sz.perClass,
			MinSamples: sz.shardLo, MaxSamples: sz.shardHi, Seed: dataSeed})
	}
	return fedproxvr.Task{}, fmt.Errorf("no task for workload %q", name)
}

// jobSpecs are the three jobs3 submissions. A jobs.Spec's seed fixes its
// data and its random streams together, so the specs are constants (seeds
// 1..3) and the bench's seed only shuffles the order they are submitted in.
func jobSpecs(sz sizing, seed int64) []jobs.Spec {
	specs := make([]jobs.Spec, 3)
	for i := range specs {
		specs[i] = jobs.Spec{
			ID: fmt.Sprintf("job%d", i+1), Dataset: "synthetic", Model: "softmax", Alg: "sarah",
			Devices: sz.devices, Tau: sz.tau, Batch: sz.batch, Rounds: sz.rounds, Seed: int64(i + 1), CheckpointEvery: 1,
		}
	}
	randx.New(seed).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}
