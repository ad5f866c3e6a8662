// Observability and hook-lifecycle regression tests: the engine must stay
// allocation-free per round when observability is off and every hook has
// been unregistered, and must produce one complete stats record per round
// when a recorder is installed.
package engine_test

import (
	"context"
	"runtime"
	"testing"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
)

// captureStats is an obs.Sink that deep-copies every record (the record is
// only valid during RecordRound — the engine reuses it).
type captureStats struct {
	records []obs.RoundStats
}

func (c *captureStats) RecordRound(rs *obs.RoundStats) {
	cp := *rs
	cp.Clients = append([]obs.ClientStat(nil), rs.Clients...)
	c.records = append(c.records, cp)
}

func (c *captureStats) Close() error { return nil }

// TestDeadHookNoPerRoundAllocs: unregistering every hook must return Run to
// its zero-allocation steady state. The historical unregister only nil-ed
// the hook slot, so len(hooks) > 0 stayed true forever and Run kept copying
// the participants slice — one allocation per round for the rest of the run.
func TestDeadHookNoPerRoundAllocs(t *testing.T) {
	p := testPartition(4, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 400
	cfg.EvalEvery = 1 << 30 // only the final round measures

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	off := eng.OnRound(func(engine.RoundInfo) error { return nil })
	off()

	// Warm the reusable buffers before counting.
	if _, _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// The run itself allocates O(1): the series, two measured points, the
	// context check. A surviving per-round participants copy would cost at
	// least one allocation per round (~400).
	if allocs > 100 {
		t.Fatalf("Run with only dead hooks allocated %d times over %d rounds — the per-round hook path is not dead",
			allocs, cfg.Rounds)
	}
}

// TestHookUnregisterIdempotentAcrossCompaction: an unregister closure must
// be safe to call twice, safe to call from inside the hook itself, and must
// keep working after the engine compacts other unregistered slots out of
// the hook list mid-run.
func TestHookUnregisterIdempotentAcrossCompaction(t *testing.T) {
	p := testPartition(4, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 8

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	var countA, countB int
	var offA func()
	offA = eng.OnRound(func(info engine.RoundInfo) error {
		countA++
		if info.Round == 2 {
			offA()
			offA() // double-unregister must not decrement another slot
		}
		return nil
	})
	offB := eng.OnRound(func(engine.RoundInfo) error {
		countB++
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.OnRound(func(info engine.RoundInfo) error {
		if info.Round == 4 {
			cancel()
		}
		return nil
	})

	if _, err := eng.Run(ctx); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if countA != 2 || countB != 4 {
		t.Fatalf("after first leg: countA=%d countB=%d, want 2/4", countA, countB)
	}

	// A's slot has been compacted away by now; B's closure must still find
	// and remove B (it matches by ID, not by slot index).
	offB()
	offB()
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if countB != 4 {
		t.Fatalf("unregistered hook fired after compaction: countB=%d, want 4", countB)
	}
	if countA != 2 {
		t.Fatalf("self-unregistered hook fired again: countA=%d, want 2", countA)
	}
}

// TestEngineStatsIntegration: with a recorder installed, Run must hand the
// collector one complete record per round — phase timings sampled,
// participants counted, per-client latencies from the executor, cumulative
// gradient evaluations monotone.
func TestEngineStatsIntegration(t *testing.T) {
	p := testPartition(4, 30, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["full"]

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	cap := &captureStats{}
	eng.SetStats(obs.NewCollector(cap))
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(cap.records) != cfg.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(cap.records), cfg.Rounds)
	}
	var prevEvals int64
	for i, rs := range cap.records {
		if rs.Round != i+1 {
			t.Fatalf("record %d is for round %d", i, rs.Round)
		}
		if rs.Participants != 4 || rs.Failed != 0 || rs.Dropouts != 0 {
			t.Fatalf("round %d: participants/failed/dropouts %d/%d/%d, want 4/0/0",
				rs.Round, rs.Participants, rs.Failed, rs.Dropouts)
		}
		if len(rs.Clients) != 4 {
			t.Fatalf("round %d: %d client stats, want 4", rs.Round, len(rs.Clients))
		}
		for _, cs := range rs.Clients {
			if cs.ID < 0 || cs.ID >= 4 || cs.Seconds < 0 {
				t.Fatalf("round %d: bad client stat %+v", rs.Round, cs)
			}
		}
		if rs.SelectSeconds < 0 || rs.ExecSeconds <= 0 || rs.AggSeconds < 0 || rs.EvalSeconds < 0 {
			t.Fatalf("round %d: phase timings %v/%v/%v/%v", rs.Round,
				rs.SelectSeconds, rs.ExecSeconds, rs.AggSeconds, rs.EvalSeconds)
		}
		if rs.GradEvals <= prevEvals {
			t.Fatalf("round %d: GradEvals %d not increasing from %d", rs.Round, rs.GradEvals, prevEvals)
		}
		prevEvals = rs.GradEvals
	}
}

// BenchmarkEngineRunRoundAllocs measures the full Run loop — selection,
// execution, aggregation, measurement, hook dispatch, stats flush — in its
// default configuration (an evaluator measuring every round, observability
// off, no live hooks). This is the whole-outer-loop complement to
// BenchmarkEngineRoundAllocs' Step-only measurement; the series' amortised
// growth is the only allocation left.
func BenchmarkEngineRunRoundAllocs(b *testing.B) {
	p := testPartition(8, 40, 5, 3, 1)
	m := models.NewSoftmax(5, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = b.N
	cfg.EvalEvery = 1

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		b.Fatal(err)
	}
	eng.SetEvaluator(&engine.Evaluator{Model: m.Clone(), Clients: p.Clients, Weights: p.Weights(), Test: p.Clients[0]})
	off := eng.OnRound(func(engine.RoundInfo) error { return nil })
	off()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}
