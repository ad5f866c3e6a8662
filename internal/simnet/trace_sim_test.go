package simnet

import (
	"context"
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/trace"
)

func simTestPartition(devices, perDevice, dim, classes int, seed int64) *data.Partition {
	p := &data.Partition{Clients: make([]*data.Dataset, devices)}
	rng := randx.New(seed)
	x := make([]float64, dim)
	for k := range p.Clients {
		ds := data.New(dim, classes, perDevice)
		for i := 0; i < perDevice; i++ {
			c := (k + i) % classes
			randx.NormalVec(rng, x, float64(c)*2, 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	return p
}

func simTraceConfig(rounds int) engine.Config {
	return engine.Config{
		Local: optim.LocalConfig{
			Estimator: optim.SARAH,
			Eta:       1.0 / 6,
			Tau:       5,
			Batch:     4,
			Mu:        0.2,
			Return:    optim.ReturnLast,
		},
		Rounds: rounds,
		Seed:   42,
	}
}

// TestSimTracerRendersTimeModel: with a simulated-clock tracer installed,
// the timed backend must emit one round span plus one child span per
// reporting device on the sim timeline, round-span durations must sum to
// the backend's reported SimSeconds, and each round's duration must equal
// the straggler max over its device children — the literal shape of the
// paper's time model T·(d_com + d_cmp·τ). Installing the tracer must not
// change the training result or the clock (same RNG draw order).
func TestSimTracerRendersTimeModel(t *testing.T) {
	cfg := simTraceConfig(4)
	p := simTestPartition(3, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3, 0)
	fleet := NewHeterogeneousFleet(3, DeviceProfile{ComputePerIter: 0.01, Uplink: 0.05, Downlink: 0.05}, 10, 17)

	var lastStats obs.RoundStats
	run := func(tr *trace.Tracer) (*TimedExecutor, []float64) {
		devices := make([]*engine.Device, len(p.Clients))
		for i, shard := range p.Clients {
			devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
		}
		tx := NewTimedExecutor(engine.NewSequential(devices, cfg.Local), fleet, cfg.Local.Tau)
		tx.SetSimTracer(tr)
		eng, err := engine.New(cfg, m.Dim(), p.Weights(), tx)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetStats(recorderFunc(func(rs *obs.RoundStats) { lastStats = *rs }))
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		w := append([]float64(nil), eng.Global()...)
		return tx, w
	}

	txRef, wantW := run(nil)
	tr := trace.NewSim("simnet")
	tx, gotW := run(tr)

	for i := range wantW {
		if gotW[i] != wantW[i] {
			t.Fatalf("sim tracing perturbed training at %d: %v vs %v", i, gotW[i], wantW[i])
		}
	}
	if tx.Now() != txRef.Now() {
		t.Fatalf("sim tracing changed the clock: %v vs %v", tx.Now(), txRef.Now())
	}

	simSeconds := lastStats.SimSeconds
	if simSeconds <= 0 {
		t.Fatalf("SimSeconds = %v, want > 0", simSeconds)
	}

	spans := tr.Spans()
	roundEnd := make(map[uint64]float64)
	var sum float64
	rounds := 0
	for _, sp := range spans {
		if sp.Lane == "sim" {
			rounds++
			sum += sp.End - sp.Start
			roundEnd[sp.ID] = sp.End
		}
	}
	if rounds != cfg.Rounds {
		t.Fatalf("got %d sim round spans, want %d", rounds, cfg.Rounds)
	}
	if math.Abs(sum-simSeconds) > 1e-9 {
		t.Fatalf("round-span durations sum to %v, SimSeconds is %v", sum, simSeconds)
	}

	// Each round's end is the straggler max over its device children, and
	// every child lies inside its round.
	childMax := make(map[uint64]float64)
	devPerRound := make(map[uint64]int)
	for _, sp := range spans {
		if sp.Lane == "sim" {
			continue
		}
		end, ok := roundEnd[sp.Parent]
		if !ok {
			t.Fatalf("device span not under a sim round span: %+v", sp)
		}
		if sp.End > end+1e-12 {
			t.Fatalf("device span outlives its round: %+v (round ends %v)", sp, end)
		}
		if sp.End > childMax[sp.Parent] {
			childMax[sp.Parent] = sp.End
		}
		devPerRound[sp.Parent]++
	}
	for rid, end := range roundEnd {
		if devPerRound[rid] != 3 {
			t.Fatalf("round span %d has %d device children, want 3", rid, devPerRound[rid])
		}
		if math.Abs(childMax[rid]-end) > 1e-12 {
			t.Fatalf("round span %d ends at %v but its slowest device ends at %v", rid, end, childMax[rid])
		}
	}
}

// recorderFunc adapts a function to engine.StatsRecorder.
type recorderFunc func(rs *obs.RoundStats)

func (f recorderFunc) RecordRound(rs *obs.RoundStats) { f(rs) }
