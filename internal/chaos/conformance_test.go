// Cross-backend chaos conformance: the same fault schedule + seed must
// produce the same failure pattern — and, for schedule-decided faults,
// bit-identical training — on the sequential, parallel, and TCP runtimes.
// This is the acceptance gate for the chaos layer: fault injection lives
// outside the algorithm, so it must not perturb what the algorithm
// computes, only who reports.
package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/transport"
)

func testPartition(devices, perDevice, dim, classes int, seed int64) *data.Partition {
	p := &data.Partition{Clients: make([]*data.Dataset, devices)}
	for k := 0; k < devices; k++ {
		rng := randx.NewStream(seed, int64(k))
		ds := data.New(dim, classes, perDevice)
		x := make([]float64, dim)
		for i := 0; i < perDevice; i++ {
			c := (k + i) % classes
			randx.NormalVec(rng, x, float64(c), 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	return p
}

func newDevices(p *data.Partition, m models.Model, seed int64) []*engine.Device {
	devices := make([]*engine.Device, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, seed)
	}
	return devices
}

func chaosConfig(rounds int, seed int64) engine.Config {
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
		Seed:   seed,
	}
}

// runInProcess trains through a chaos-wrapped in-process executor and
// returns the final model and series.
func runInProcess(t *testing.T, cfg engine.Config, p *data.Partition, m models.Model,
	sched *chaos.Schedule, parallel bool) ([]float64, *metrics.Series) {
	t.Helper()
	devices := newDevices(p, m, cfg.Seed)
	var inner engine.Executor
	if parallel {
		par := engine.NewParallel(devices, cfg.Local)
		inner = par
	} else {
		inner = engine.NewSequential(devices, cfg.Local)
	}
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), chaos.NewExecutor(inner, sched))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return mathx.Clone(eng.Global()), s
}

// runTCPChaos trains over loopback TCP with chaos workers enforcing the
// same schedule on the wire. An engine hook awaits the rejoin of every
// worker the schedule killed that round, so a kill is a one-round outage
// exactly like the in-process decorator's skip.
func runTCPChaos(t *testing.T, cfg engine.Config, p *data.Partition, m models.Model,
	sched *chaos.Schedule, sinks ...obs.Sink) ([]float64, *metrics.Series) {
	t.Helper()
	n := len(p.Clients)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w, err := transport.NewChaosWorker(addr, k, p.Clients[k], m, cfg.Seed, sched)
			if err != nil {
				t.Errorf("chaos worker %d: %v", k, err)
				return
			}
			if err := w.Serve(); err != nil {
				t.Errorf("chaos worker %d serve: %v", k, err)
			}
		}(k)
	}
	c, err := transport.NewCoordinatorOn(ln, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	eng, err := engine.New(cfg, m.Dim(), c.Weights(), c.Executor(cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	var coll *obs.Collector
	if len(sinks) > 0 {
		coll = obs.NewCollector(sinks...)
		eng.SetStats(coll)
	}
	eng.OnRound(func(info engine.RoundInfo) error {
		for d := 0; d < n; d++ {
			if ev, ok := sched.ActionFor(d, info.Round); ok &&
				(ev.Kind == chaos.Crash || ev.Kind == chaos.Partition || ev.Kind == chaos.Delay) {
				// A killed (or deadline-cut delayed) worker must be adopted
				// back before the next round that expects it.
				if err := c.AwaitRejoin(d, 10*time.Second); err != nil {
					return err
				}
			}
		}
		return nil
	})
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("chaos TCP run aborted: %v", err)
	}
	got := mathx.Clone(eng.Global())
	c.Shutdown()
	wg.Wait()
	if coll != nil {
		if err := coll.Close(); err != nil {
			t.Fatalf("trace close: %v", err)
		}
	}
	return got, s
}

func assertSeriesEqual(t *testing.T, name string, got, want *metrics.Series) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: series has %d points, want %d", name, len(got.Points), len(want.Points))
	}
	for i, gp := range got.Points {
		wp := want.Points[i]
		if gp.Round != wp.Round || gp.Participants != wp.Participants ||
			gp.Failed != wp.Failed || gp.GradEvals != wp.GradEvals {
			t.Fatalf("%s: point %d: round/participants/failed/evals %d/%d/%d/%d, want %d/%d/%d/%d",
				name, i, gp.Round, gp.Participants, gp.Failed, gp.GradEvals,
				wp.Round, wp.Participants, wp.Failed, wp.GradEvals)
		}
	}
}

func assertModelEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: global model differs at %d: %v vs %v", name, i, got[i], want[i])
		}
	}
	if mathx.Nrm2Sq(want) == 0 {
		t.Fatalf("%s: model stayed at zero — the comparison is vacuous", name)
	}
}

// TestChaosConformance drives one handcrafted schedule exercising every
// event kind through all three enforcement paths and requires bit-identical
// models and metric series. The schedule has no deadline in play, so every
// fault is schedule-decided and determinism is exact.
func TestChaosConformance(t *testing.T) {
	p := testPartition(4, 30, 3, 3, 1)
	m := models.NewSoftmax(3, 3, 0)
	cfg := chaosConfig(8, 42)
	sched := &chaos.Schedule{
		Seed: 2020,
		Events: []chaos.Event{
			{Device: 0, Round: 2, Kind: chaos.Crash},
			{Device: 1, Round: 3, Kind: chaos.Flake},
			{Device: 2, Round: 4, Kind: chaos.Corrupt, Scale: 0.3},
			{Device: 3, Round: 5, Kind: chaos.Partition, Until: 7},
			{Device: 2, Round: 7, Kind: chaos.Delay, DelayMS: 30},
		},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	want, wantSeries := runInProcess(t, cfg, p, m, sched, false)

	// The fault pattern must actually show: crash round 2, partition rounds
	// 5 and 6 each lose one device; everything else reports in full.
	wantFailed := map[int]int{2: 1, 5: 1, 6: 1}
	for _, pt := range wantSeries.Points {
		if pt.Round == 0 {
			continue
		}
		if pt.Failed != wantFailed[pt.Round] {
			t.Fatalf("round %d: failed %d, want %d", pt.Round, pt.Failed, wantFailed[pt.Round])
		}
		if pt.Participants != len(p.Clients)-wantFailed[pt.Round] {
			t.Fatalf("round %d: participants %d", pt.Round, pt.Participants)
		}
	}

	gotPar, parSeries := runInProcess(t, cfg, p, m, sched, true)
	assertModelEqual(t, "parallel", gotPar, want)
	assertSeriesEqual(t, "parallel", parSeries, wantSeries)

	var trace bytes.Buffer
	gotTCP, tcpSeries := runTCPChaos(t, cfg, p, m, sched, obs.NewJSONL(&trace))
	assertModelEqual(t, "tcp", gotTCP, want)
	assertSeriesEqual(t, "tcp", tcpSeries, wantSeries)

	// The TCP trace must show the flake as a retry and the kills as
	// failures (not stragglers — no deadline is armed).
	records := decodeTrace(t, &trace)
	if len(records) != cfg.Rounds {
		t.Fatalf("trace has %d records, want %d", len(records), cfg.Rounds)
	}
	for _, rs := range records {
		if rs.Stragglers != 0 {
			t.Fatalf("round %d: stragglers %d without a straggler policy", rs.Round, rs.Stragglers)
		}
		if rs.Failed != wantFailed[rs.Round] {
			t.Fatalf("round %d trace: failed %d, want %d", rs.Round, rs.Failed, wantFailed[rs.Round])
		}
		if rs.Round == 3 && rs.Retries < 1 {
			t.Fatalf("round 3 trace: retries %d, want ≥1 (injected flake)", rs.Retries)
		}
	}
}

// TestChaosStragglerCutInProcess schedules a delay that decisively exceeds
// the round deadline: the device must be cut as a straggler (not a
// failure), the cut must not consume its RNG — so sequential and parallel
// stay bit-identical — and the round must end at the deadline, not after
// the full delay.
func TestChaosStragglerCutInProcess(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 2)
	m := models.NewSoftmax(3, 3, 0)
	cfg := chaosConfig(4, 7)
	cfg.RoundDeadline = 150 * time.Millisecond
	sched := &chaos.Schedule{
		Seed: 1,
		Events: []chaos.Event{
			{Device: 1, Round: 2, Kind: chaos.Delay, DelayMS: 2000},
		},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	type roundObs struct{ failed, stragglers, participants int }
	run := func(parallel bool) ([]float64, *metrics.Series, map[int]roundObs) {
		devices := newDevices(p, m, cfg.Seed)
		var inner engine.Executor
		if parallel {
			par := engine.NewParallel(devices, cfg.Local)
			inner = par
		} else {
			inner = engine.NewSequential(devices, cfg.Local)
		}
		eng, err := engine.New(cfg, m.Dim(), p.Weights(), chaos.NewExecutor(inner, sched))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]roundObs)
		eng.OnRound(func(info engine.RoundInfo) error {
			seen[info.Round] = roundObs{info.Failed, info.Stragglers, len(info.Participants)}
			return nil
		})
		s, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return mathx.Clone(eng.Global()), s, seen
	}

	start := time.Now()
	want, wantSeries, seenSeq := run(false)
	seqWall := time.Since(start)
	if seqWall > 1200*time.Millisecond {
		t.Fatalf("run took %v — the 2s delay was not cut at the 150ms deadline", seqWall)
	}
	if ro := seenSeq[2]; ro.stragglers != 1 || ro.failed != 0 || ro.participants != 2 {
		t.Fatalf("round 2: %+v, want 1 straggler, 0 failed, 2 participants", ro)
	}
	if ro := seenSeq[3]; ro.stragglers != 0 || ro.participants != 3 {
		t.Fatalf("round 3: %+v — the delayed device should be back", ro)
	}

	got, gotSeries, seenPar := run(true)
	assertModelEqual(t, "parallel", got, want)
	assertSeriesEqual(t, "parallel", gotSeries, wantSeries)
	if ro := seenPar[2]; ro.stragglers != 1 || ro.failed != 0 {
		t.Fatalf("parallel round 2: %+v", ro)
	}
}

// TestChaosDelayOnQuorumCutDevice is the regression test for a data race on
// Parallel: under a MinReport-only policy (no deadline, so the round context
// cannot be cancelled) a device that round 1's quorum cut is still solving
// when round 2's Delay event hands it back to the pool in a call of its own
// with MinReport 0. The pool must see that the device is busy and count it
// as a straggler; dispatching it would reseed its RNG under the live solve
// and run two solves on one device. Run under -race (make race).
func TestChaosDelayOnQuorumCutDevice(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 4)
	// Device 2's full-gradient pass takes far longer than the other two
	// devices' whole round, so the quorum always cuts it, and its abandoned
	// solve is still running when the next round dispatches.
	p.Clients[2] = testPartition(3, 400000, 3, 3, 4).Clients[2]
	m := models.NewSoftmax(3, 3, 0)
	cfg := chaosConfig(2, 9)
	cfg.MinReport = 2
	sched := &chaos.Schedule{
		Seed:   1,
		Events: []chaos.Event{{Device: 2, Round: 2, Kind: chaos.Delay, DelayMS: 1}},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	par := engine.NewParallel(newDevices(p, m, cfg.Seed), cfg.Local)
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), chaos.NewExecutor(par, sched))
	if err != nil {
		t.Fatal(err)
	}
	eng.OnRound(func(info engine.RoundInfo) error {
		if len(info.Participants) != 2 || info.Stragglers != 1 || info.Failed != 0 {
			return errors.New("round " + strconv.Itoa(info.Round) + ": want devices 0 and 1 reporting and device 2 cut as a straggler, got participants " +
				strconv.Itoa(len(info.Participants)) + ", stragglers " + strconv.Itoa(info.Stragglers) + ", failed " + strconv.Itoa(info.Failed))
		}
		return nil
	})
	// Step, not Run: Step passes a context that cannot be cancelled, as
	// simnet.Train does.
	for r := 0; r < cfg.Rounds; r++ {
		if _, _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosTCPStragglerDeadline is the wire-level straggler acceptance
// test: a scripted slow worker (2s injected reply delay) against a 200ms
// round deadline and a 5s flat connection timeout. The round must be cut
// by the deadline — far before the flat timeout — with the slow worker
// counted as a straggler in the JSONL trace, and it must rejoin for the
// next round.
func TestChaosTCPStragglerDeadline(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 3)
	m := models.NewSoftmax(3, 3, 0)
	cfg := chaosConfig(4, 11)
	cfg.RoundDeadline = 200 * time.Millisecond
	sched := &chaos.Schedule{
		Seed: 5,
		Events: []chaos.Event{
			{Device: 1, Round: 2, Kind: chaos.Delay, DelayMS: 2000},
		},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	start := time.Now()
	_, series := runTCPChaos(t, cfg, p, m, sched, obs.NewJSONL(&trace))
	wall := time.Since(start)

	// The run holds at the round-2 hook until the slow worker's 2s write
	// sleep ends and it rejoins (~2s), but must never wait out the flat 5s
	// connection timeout.
	if wall > 4*time.Second {
		t.Fatalf("run took %v — the straggler was not cut at the round deadline", wall)
	}
	records := decodeTrace(t, &trace)
	if len(records) != cfg.Rounds {
		t.Fatalf("trace has %d records, want %d", len(records), cfg.Rounds)
	}
	for _, rs := range records {
		switch rs.Round {
		case 2:
			if rs.Stragglers != 1 || rs.Failed != 0 || rs.Participants != 2 {
				t.Fatalf("round 2 trace: %d stragglers, %d failed, %d participants — want 1/0/2",
					rs.Stragglers, rs.Failed, rs.Participants)
			}
			if rs.ExecSeconds > 1.5 {
				t.Fatalf("round 2 fan-out took %.2fs — not cut at the 200ms deadline", rs.ExecSeconds)
			}
		default:
			if rs.Stragglers != 0 || rs.Failed != 0 || rs.Participants != 3 {
				t.Fatalf("round %d trace: %d stragglers, %d failed, %d participants — want 0/0/3",
					rs.Round, rs.Stragglers, rs.Failed, rs.Participants)
			}
		}
	}
	// The rejoin must be visible: the round after the cut readmits the
	// worker (asserted above) and the trace counts an adoption.
	rejoins := 0
	for _, rs := range records {
		rejoins += rs.Rejoins
	}
	if rejoins < 1 {
		t.Fatalf("trace shows no rejoin after the straggler teardown")
	}
	if last, _ := series.Last(); last.Round != cfg.Rounds {
		t.Fatalf("run ended at round %d, want %d", last.Round, cfg.Rounds)
	}
}

// TestChaosSoak runs a Generate-drawn randomized schedule (seeded — every
// failure is reproducible) across the backends: sequential and parallel
// must be bit-identical; the TCP run must show the same participation
// pattern. Scale up with CHAOS_SOAK_ROUNDS; -short shrinks the run but
// still injects faults, so tier-1 always exercises the chaos path.
func TestChaosSoak(t *testing.T) {
	rounds := 12
	if v := os.Getenv("CHAOS_SOAK_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SOAK_ROUNDS %q", v)
		}
		rounds = n
	}
	if testing.Short() {
		rounds = 6
	}
	p := testPartition(5, 24, 3, 3, 4)
	m := models.NewSoftmax(3, 3, 0)
	cfg := chaosConfig(rounds, 13)
	sched, err := chaos.Generate(chaos.GenConfig{
		Seed: 99, Devices: 5, Rounds: rounds,
		PCrash: 0.06, PFlake: 0.06, PDelay: 0.06, PCorrupt: 0.06, PPartition: 0.04,
		Delay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) == 0 {
		t.Fatal("soak schedule is empty — raise the probabilities")
	}
	t.Logf("soak: %d rounds, %d scheduled events", rounds, len(sched.Events))

	want, wantSeries := runInProcess(t, cfg, p, m, sched, false)
	gotPar, parSeries := runInProcess(t, cfg, p, m, sched, true)
	assertModelEqual(t, "parallel", gotPar, want)
	assertSeriesEqual(t, "parallel", parSeries, wantSeries)

	gotTCP, tcpSeries := runTCPChaos(t, cfg, p, m, sched)
	assertModelEqual(t, "tcp", gotTCP, want)
	assertSeriesEqual(t, "tcp", tcpSeries, wantSeries)
}

func decodeTrace(t *testing.T, r io.Reader) []obs.RoundStats {
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
