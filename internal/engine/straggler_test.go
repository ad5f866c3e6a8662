// Straggler-policy tests: MinReport/RoundDeadline round cutting at the
// executor layer, the Failed/Stragglers split the engine reports, and the
// partial-record flush when a round dies mid-flight.
package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/trace"
)

// TestMinReportSequentialDeterministic: the sequential backend cuts the
// round after exactly minReport devices, in selection order, so the
// participant set is deterministic and the remainder are stragglers.
func TestMinReportSequentialDeterministic(t *testing.T) {
	p := testPartition(4, 20, 3, 3, 6)
	m := models.NewSoftmax(3, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.MinReport = 2
	cfg.Rounds = 3

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	eng.SetStats(obs.NewCollector(obs.NewJSONL(&trace)))
	eng.OnRound(func(info engine.RoundInfo) error {
		if len(info.Participants) != 2 || info.Stragglers != 2 || info.Failed != 0 {
			return fmt.Errorf("round %d: participants %v, stragglers %d, failed %d — want first 2, 2, 0",
				info.Round, info.Participants, info.Stragglers, info.Failed)
		}
		if info.Participants[0] != 0 || info.Participants[1] != 1 {
			return fmt.Errorf("round %d: cut is not in selection order: %v", info.Round, info.Participants)
		}
		return nil
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, rs := range decodeRounds(t, &trace) {
		if rs.Participants != 2 || rs.Stragglers != 2 || rs.Failed != 0 {
			t.Fatalf("record %d: participants/stragglers/failed %d/%d/%d, want 2/2/0",
				i, rs.Participants, rs.Stragglers, rs.Failed)
		}
		if len(rs.Clients) != 2 {
			t.Fatalf("record %d: %d client stats, want 2 (cut devices carry no latency)", i, len(rs.Clients))
		}
	}
}

// TestMinReportPointFailedExcludesStragglers: a device cut by the quorum is
// late, not failed, so the measured points count no failures — the same
// split RoundInfo and the round record make.
func TestMinReportPointFailedExcludesStragglers(t *testing.T) {
	p := testPartition(4, 20, 3, 3, 6)
	m := models.NewSoftmax(3, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.MinReport = len(p.Clients) - 1
	cfg.Rounds = 3

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range s.Points[1:] {
		if pt.Failed != 0 || pt.Participants != cfg.MinReport {
			t.Fatalf("round %d: point records %d participants, %d failed — want %d, 0",
				pt.Round, pt.Participants, pt.Failed, cfg.MinReport)
		}
	}
	if n := s.TotalFailed(); n != 0 {
		t.Fatalf("series counts %d failures, want 0", n)
	}
}

// TestMinReportParallelQuorum: the parallel backend accepts at least the
// quorum (plus any results that raced the cut) and counts the rest as
// stragglers; every nil slot must be a straggler, never a failure.
func TestMinReportParallelQuorum(t *testing.T) {
	p := testPartition(6, 20, 3, 3, 8)
	m := models.NewSoftmax(3, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.MinReport = 2
	cfg.Rounds = 4

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	par := engine.NewParallel(newDevices(p, m, cfg.Seed), cfg.Local)
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), par)
	if err != nil {
		t.Fatal(err)
	}
	cutRounds := 0
	eng.OnRound(func(info engine.RoundInfo) error {
		if info.Failed != 0 {
			return fmt.Errorf("round %d: %d failed — quorum cuts must be stragglers", info.Round, info.Failed)
		}
		if got := len(info.Participants); got < cfg.MinReport || got+info.Stragglers != len(p.Clients) {
			return fmt.Errorf("round %d: %d participants + %d stragglers over %d devices",
				info.Round, got, info.Stragglers, len(p.Clients))
		}
		if info.Stragglers > 0 {
			cutRounds++
		}
		return nil
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cutRounds == 0 {
		t.Fatal("no round was quorum-cut — the test is vacuous (pool too fast?)")
	}
}

// specSpy records what the engine hands its executor each round, and the
// stragglers the executor reports back.
type specSpy struct {
	inner      engine.Executor
	rounds     []int
	minReport  []int
	deadline   []bool // ctx carried a deadline
	cuttable   []bool // ctx.Done() != nil
	stragglers int
}

func (s *specSpy) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	_, hasDL := ctx.Deadline()
	s.rounds = append(s.rounds, spec.Round)
	s.minReport = append(s.minReport, spec.MinReport)
	s.deadline = append(s.deadline, hasDL)
	s.cuttable = append(s.cuttable, ctx.Done() != nil)
	err := s.inner.RunRound(ctx, spec, res)
	s.stragglers += res.Stragglers
	return err
}

// TestRoundSpecCarriesPolicyAndRound pins what travels in the round
// contract. Policy off: no quorum and a context nothing can cut — even when
// the caller's own context is cancellable — which is what keeps Parallel on
// its allocation-free strategy (BenchmarkEngineRoundAllocs). Policy on: the
// configured quorum and a deadline. And after Resume(t, nil) the next spec is
// numbered t+1, so a resumed engine drives device re-keying, fault
// schedules and the wire at the true global round.
func TestRoundSpecCarriesPolicyAndRound(t *testing.T) {
	p := testPartition(3, 10, 3, 3, 9)
	m := models.NewSoftmax(3, 3, 0)
	run := func(cfg engine.Config, resumeAt int) *specSpy {
		t.Helper()
		x := &specSpy{inner: engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local)}
		eng, err := engine.New(cfg, m.Dim(), p.Weights(), x)
		if err != nil {
			t.Fatal(err)
		}
		eng.Resume(resumeAt, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return x
	}

	off := conformanceConfigs()["full"]
	off.Rounds = 2
	x := run(off, 0)
	if len(x.rounds) != 2 || x.rounds[0] != 1 || x.rounds[1] != 2 {
		t.Fatalf("fresh run numbered its rounds %v, want [1 2]", x.rounds)
	}
	for i := range x.rounds {
		if x.minReport[i] != 0 || x.deadline[i] || x.cuttable[i] {
			t.Fatalf("policy-off round %d: MinReport %d, deadline %v, cuttable ctx %v — want 0/false/false",
				x.rounds[i], x.minReport[i], x.deadline[i], x.cuttable[i])
		}
	}
	if x.stragglers != 0 {
		t.Fatalf("policy-off rounds report %d stragglers", x.stragglers)
	}

	on := off
	on.MinReport = 2
	on.RoundDeadline = time.Minute
	x = run(on, 0)
	for i := range x.rounds {
		if x.minReport[i] != 2 || !x.deadline[i] {
			t.Fatalf("policy-on round %d: MinReport %d, deadline %v — want 2/true",
				x.rounds[i], x.minReport[i], x.deadline[i])
		}
	}

	resumed := off
	resumed.Rounds = 7
	x = run(resumed, 5)
	if len(x.rounds) != 2 || x.rounds[0] != 6 || x.rounds[1] != 7 {
		t.Fatalf("engine resumed at round 5 numbered its rounds %v, want [6 7]", x.rounds)
	}
}

// TestConfigRejectsBadPolicy: negative knobs and the SecureAgg conflict
// (a cut round's absent masks cannot cancel) must fail validation.
func TestConfigRejectsBadPolicy(t *testing.T) {
	base := conformanceConfigs()["full"]
	// Direct Validate calls skip the engine's defaulting pass, so spell the
	// full-participation default out — Validate rejects the zero value.
	base.ClientFraction = 1
	neg := base
	neg.RoundDeadline = -time.Second
	if err := neg.Validate(); err == nil {
		t.Fatal("negative RoundDeadline should fail validation")
	}
	neg = base
	neg.MinReport = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative MinReport should fail validation")
	}
	sec := base
	sec.SecureAgg = true
	sec.MinReport = 2
	if err := sec.Validate(); err == nil {
		t.Fatal("SecureAgg with a quorum cut should fail validation")
	}
	sec.MinReport = 0
	sec.RoundDeadline = time.Second
	if err := sec.Validate(); err == nil {
		t.Fatal("SecureAgg with a round deadline should fail validation")
	}
}

// failingExec errors at a fixed round, mid-fan-out.
type failingExec struct {
	inner engine.Executor
	at    int
}

func (f *failingExec) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	if spec.Round == f.at {
		return fmt.Errorf("executor blew up at round %d", spec.Round)
	}
	return f.inner.RunRound(ctx, spec, res)
}

// TestRunFlushesPartialStatsOnError: when Step dies mid-round, Run must
// still flush the in-flight partial record, so the trace shows the round
// that died — not just the rounds before it.
func TestRunFlushesPartialStatsOnError(t *testing.T) {
	p := testPartition(3, 15, 3, 3, 10)
	m := models.NewSoftmax(3, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 6
	const dieAt = 3

	eng, err := engine.New(cfg, m.Dim(), p.Weights(),
		&failingExec{inner: engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local), at: dieAt})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	eng.SetStats(obs.NewCollector(obs.NewJSONL(&trace)))
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("the failing executor should abort the run")
	}
	records := decodeRounds(t, &trace)
	if len(records) != dieAt {
		t.Fatalf("trace has %d records, want %d (the dying round included)", len(records), dieAt)
	}
	last := records[dieAt-1]
	if last.Round != dieAt {
		t.Fatalf("last record is round %d, want the aborted round %d", last.Round, dieAt)
	}
	if last.Participants != 0 || len(last.Clients) != 0 {
		t.Fatalf("aborted round record should have no participants: %+v", last)
	}
}

// failingAgg errors at a fixed call, after taking measurable time.
type failingAgg struct {
	inner engine.Aggregator
	at    int
	calls int
}

func (f *failingAgg) Aggregate(w []float64, selected []int, locals [][]float64) error {
	f.calls++
	if f.calls == f.at {
		time.Sleep(2 * time.Millisecond)
		return fmt.Errorf("aggregator blew up at call %d", f.calls)
	}
	return f.inner.Aggregate(w, selected, locals)
}

// TestAggregateErrorClosesSpanAndStampsTime: an aggregation error aborts
// the run, but the round's "aggregate" phase span must still be closed —
// every span the tracer exports is — and the partial record Run flushes
// must carry the time the failing aggregation took.
func TestAggregateErrorClosesSpanAndStampsTime(t *testing.T) {
	p := testPartition(3, 15, 3, 3, 10)
	m := models.NewSoftmax(3, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 5
	const dieAt = 2

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	eng.SetAggregator(&failingAgg{inner: eng.Aggregator(), at: dieAt})
	var records bytes.Buffer
	eng.SetStats(obs.NewCollector(obs.NewJSONL(&records)))
	tr := trace.New("test")
	eng.SetTracer(tr)
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("the failing aggregator should abort the run")
	}

	var export bytes.Buffer
	if err := tr.WriteChrome(&export); err != nil {
		t.Fatalf("exporting the aborted run's trace: %v", err)
	}
	aggSpans := 0
	for _, sp := range tr.Spans() {
		if sp.End < sp.Start {
			t.Fatalf("span %q of round %d left open by the aborted run: %+v", sp.Name, sp.Round, sp)
		}
		if sp.Name == "aggregate" && sp.Round == dieAt {
			aggSpans++
			if sp.End-sp.Start < 0.002 {
				t.Fatalf("aggregate span of the failing round covers %.6fs, want the ≥2ms the aggregator took", sp.End-sp.Start)
			}
		}
	}
	if aggSpans != 1 {
		t.Fatalf("%d aggregate spans in the failing round, want 1", aggSpans)
	}

	rounds := decodeRounds(t, &records)
	if len(rounds) != dieAt {
		t.Fatalf("%d round records, want %d (the dying round included)", len(rounds), dieAt)
	}
	last := rounds[dieAt-1]
	if last.Round != dieAt || last.AggSeconds < 0.002 {
		t.Fatalf("partial record of the failing round: round %d, AggSeconds %v — want round %d and ≥ 0.002",
			last.Round, last.AggSeconds, dieAt)
	}
	if last.Participants != 3 || len(last.Clients) != 3 {
		t.Fatalf("partial record lost the fan-out that preceded the failure: %+v", last)
	}
}

func decodeRounds(t *testing.T, r io.Reader) []obs.RoundStats {
	t.Helper()
	var records []obs.RoundStats
	dec := json.NewDecoder(r)
	for {
		var rs obs.RoundStats
		if err := dec.Decode(&rs); err != nil {
			if errors.Is(err, io.EOF) {
				return records
			}
			t.Fatalf("trace decode: %v", err)
		}
		records = append(records, rs)
	}
}
