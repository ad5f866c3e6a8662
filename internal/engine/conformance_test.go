// Backend-conformance suite: every executor backend — sequential, pooled
// parallel, simulated-clock fleet, and TCP — must produce bit-identical
// global models from the same seed, because the outer loop is the engine's
// and every device owns a private RNG stream. This subsumes the historical
// TestParallelMatchesSequentialExactly and the transport bit-for-bit test.
package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
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
	"fedproxvr/internal/simnet"
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

// setupFunc prepares a built engine before its run (installs an
// aggregator, say); nil leaves it as New built it.
type setupFunc func(*testing.T, *engine.Engine)

// runBackend builds an engine over the executor mk returns, prepares it
// with setup and runs it to completion, returning the final global model
// and the series.
func runBackend(t *testing.T, cfg engine.Config, p *data.Partition, m models.Model,
	mk func([]*engine.Device) engine.Executor, setup setupFunc) ([]float64, *metrics.Series) {
	t.Helper()
	exec := mk(newDevices(p, m, cfg.Seed))
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(t, eng)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return mathx.Clone(eng.Global()), s
}

// runTCP runs the same configuration over loopback TCP workers.
func runTCP(t *testing.T, cfg engine.Config, p *data.Partition, m models.Model, setup setupFunc) ([]float64, *metrics.Series) {
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
			w, err := transport.NewWorker(addr, k, p.Clients[k], m, cfg.Seed)
			if err != nil {
				t.Errorf("worker %d: %v", k, err)
				return
			}
			if err := w.Serve(); err != nil {
				t.Errorf("worker %d serve: %v", k, err)
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
	if setup != nil {
		setup(t, eng)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := mathx.Clone(eng.Global())
	c.Shutdown()
	wg.Wait()
	return got, s
}

func conformanceConfigs() map[string]engine.Config {
	base := engine.Config{
		Local: optim.LocalConfig{
			Estimator: optim.SARAH,
			Eta:       1.0 / 6,
			Tau:       5,
			Batch:     4,
			Mu:        0.2,
			Return:    optim.ReturnLast,
		},
		Rounds: 6,
		Seed:   42,
	}
	partial := base
	partial.ClientFraction = 0.5
	partial.DropoutProb = 0.25
	partial.Seed = 7
	dp := base // aggregates through NewDPMean (see conformanceSetups)
	dp.Seed = 11
	// Probabilistic per-device activation: the cohort is a pure function of
	// (seed, round, id), so every backend — and every aggregation-tree node —
	// must derive the identical one.
	activate := base
	activate.ActivateProb = 0.6
	activate.Seed = 13
	return map[string]engine.Config{"full": base, "partial": partial, "dp": dp, "activate": activate}
}

// conformanceSetups prepares the engines of the conformance configs that
// need more than a Config: the dp leg clips at 0.5 with noise 0.05.
var conformanceSetups = map[string]setupFunc{
	"dp": func(t *testing.T, eng *engine.Engine) {
		dp, err := engine.NewDPMean(eng, 0.5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetAggregator(dp)
	},
}

func TestBackendConformance(t *testing.T) {
	p := testPartition(4, 30, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	fleet := simnet.NewUniformFleet(4, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.1, Downlink: 0.1}, 5)

	for name, cfg := range conformanceConfigs() {
		cfg, setup := cfg, conformanceSetups[name]
		t.Run(name, func(t *testing.T) {
			want, wantSeries := runBackend(t, cfg, p, m, func(d []*engine.Device) engine.Executor {
				return engine.NewSequential(d, cfg.Local)
			}, setup)
			backends := map[string]func(*testing.T) ([]float64, *metrics.Series){
				"parallel": func(t *testing.T) ([]float64, *metrics.Series) {
					return runBackend(t, cfg, p, m, func(d []*engine.Device) engine.Executor {
						return engine.NewParallel(d, cfg.Local)
					}, setup)
				},
				"timed": func(t *testing.T) ([]float64, *metrics.Series) {
					return runBackend(t, cfg, p, m, func(d []*engine.Device) engine.Executor {
						return simnet.NewTimedExecutor(engine.NewSequential(d, cfg.Local), fleet, cfg.Local.Tau)
					}, setup)
				},
				"tcp": func(t *testing.T) ([]float64, *metrics.Series) {
					return runTCP(t, cfg, p, m, setup)
				},
			}
			for bname, run := range backends {
				got, gotSeries := run(t)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: global model differs from sequential at %d: %v vs %v",
							bname, i, got[i], want[i])
					}
				}
				wl, _ := wantSeries.Last()
				gl, _ := gotSeries.Last()
				if gl.GradEvals != wl.GradEvals {
					t.Fatalf("%s: GradEvals %d, sequential %d", bname, gl.GradEvals, wl.GradEvals)
				}
			}
			if mathx.Nrm2Sq(want) == 0 {
				t.Fatal("training left the model at zero — conformance is vacuous")
			}
		})
	}
}

// failAfterExec decorates an executor with a deterministic fault schedule:
// from round after+1 on, device victim fails (nil partial result) without
// running its solve — the in-process equivalent of a TCP worker that
// crashed after round `after` and never reports again.
type failAfterExec struct {
	inner  engine.Executor
	after  int
	victim int
	sub    []int
	subRes engine.RoundResult
}

func (f *failAfterExec) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	if spec.Round <= f.after {
		return f.inner.RunRound(ctx, spec, res)
	}
	selected := spec.Selected
	f.sub = f.sub[:0]
	pos := -1
	for i, id := range selected {
		if id == f.victim {
			pos = i
			continue
		}
		f.sub = append(f.sub, id)
	}
	if pos < 0 {
		return f.inner.RunRound(ctx, spec, res)
	}
	spec.Selected = f.sub
	if err := f.inner.RunRound(ctx, spec, &f.subRes); err != nil {
		return err
	}
	out := res.Reset(len(selected))
	res.GradEvals = f.subRes.GradEvals
	j := 0
	for i := range selected {
		if i == pos {
			continue
		}
		out[i] = f.subRes.Locals[j]
		j++
	}
	return nil
}

// newFlakyWorker builds a worker that serves rounds like any other, except
// that at round flakeRound it replies with an application-level error once —
// WITHOUT running the local solve — and then computes normally when the
// coordinator retries the same round. The device therefore runs exactly once
// per round, so the run stays bit-identical to one without the flake; only
// the retry counter moves. It does not rejoin after a teardown.
func newFlakyWorker(t *testing.T, addr string, id int, shard *data.Dataset, m models.Model, seed int64, flakeRound int) *transport.Worker {
	t.Helper()
	sched := &chaos.Schedule{Events: []chaos.Event{{Device: id, Round: flakeRound, Kind: chaos.Flake}}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := transport.NewWorker(addr, id, shard, m, seed)
	if err == nil {
		err = w.SetChaos(sched)
	}
	if err != nil {
		t.Fatal(err)
	}
	w.SetRejoin(0, 0)
	return w
}

// TestTCPWorkerFailureMatchesDropoutSchedule is the fault-tolerance
// conformance gate: a TCP run whose worker is killed mid-training must
// complete all configured rounds and produce a global model bit-identical
// to an in-process run with the equivalent dropout schedule (the victim
// stops reporting — and computing — after the same round). The run records
// a JSONL observability trace, and one worker additionally flakes once at
// an earlier round (application-level error, retried per FaultPolicy), so
// the trace is asserted to capture both the retry and the dropout.
func TestTCPWorkerFailureMatchesDropoutSchedule(t *testing.T) {
	p := testPartition(4, 30, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 8
	const killAfter, victim = 3, 2
	const flaky, flakeRound = 1, 2 // worker 1 errors once at round 2, then serves the retry

	// In-process reference with the equivalent dropout schedule.
	want, wantSeries := runBackend(t, cfg, p, m, func(d []*engine.Device) engine.Executor {
		return &failAfterExec{inner: engine.NewSequential(d, cfg.Local), after: killAfter, victim: victim}
	}, nil)

	// TCP run: the victim worker's connection is killed after round
	// killAfter, mid-training, via an engine hook.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	n := len(p.Clients)
	workers := make([]*transport.Worker, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		var w *transport.Worker
		if k == flaky {
			w = newFlakyWorker(t, addr, k, p.Clients[k], m, cfg.Seed, flakeRound)
		} else if w, err = transport.NewWorker(addr, k, p.Clients[k], m, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		workers[k] = w
		wg.Add(1)
		go func(w *transport.Worker, k int) {
			defer wg.Done()
			if err := w.Serve(); err != nil {
				t.Errorf("worker %d serve: %v", k, err)
			}
		}(w, k)
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
	var trace bytes.Buffer
	coll := obs.NewCollector(obs.NewJSONL(&trace))
	eng.SetStats(coll)
	eng.OnRound(func(info engine.RoundInfo) error {
		if info.Round == killAfter {
			workers[victim].Close()
		}
		return nil
	})
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("killed worker must not abort the run: %v", err)
	}
	got := mathx.Clone(eng.Global())
	c.Shutdown()
	wg.Wait()
	if err := coll.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("global model differs from dropout-equivalent run at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if len(s.Points) != len(wantSeries.Points) {
		t.Fatalf("series length %d, want %d", len(s.Points), len(wantSeries.Points))
	}
	for i, gp := range s.Points {
		wp := wantSeries.Points[i]
		if gp.Participants != wp.Participants || gp.Failed != wp.Failed || gp.GradEvals != wp.GradEvals {
			t.Fatalf("point %d: participants/failed/evals %d/%d/%d, want %d/%d/%d",
				i, gp.Participants, gp.Failed, gp.GradEvals, wp.Participants, wp.Failed, wp.GradEvals)
		}
	}
	last := s.Points[len(s.Points)-1]
	if last.Round != cfg.Rounds || last.Failed != 1 || last.Participants != len(p.Clients)-1 {
		t.Fatalf("final point %+v: want round %d with %d participants and 1 failure",
			last, cfg.Rounds, len(p.Clients)-1)
	}

	// The JSONL trace must record one line per round, with the injected
	// flake visible as a retry and the killed worker as a per-round failure.
	var records []obs.RoundStats
	scan := json.NewDecoder(&trace)
	for {
		var rs obs.RoundStats
		if err := scan.Decode(&rs); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("trace decode: %v", err)
		}
		records = append(records, rs)
	}
	if len(records) != cfg.Rounds {
		t.Fatalf("trace has %d records, want one per round (%d)", len(records), cfg.Rounds)
	}
	for i, rs := range records {
		round := i + 1
		if rs.Round != round {
			t.Fatalf("trace record %d is for round %d", i, rs.Round)
		}
		wantPart := n
		if round > killAfter {
			wantPart = n - 1
		}
		if rs.Participants != wantPart || len(rs.Clients) != wantPart {
			t.Fatalf("round %d trace: participants %d with %d client stats, want %d",
				round, rs.Participants, len(rs.Clients), wantPart)
		}
		switch {
		case round == flakeRound:
			if rs.Retries < 1 {
				t.Fatalf("round %d trace: retries %d, want ≥1 (injected flake)", round, rs.Retries)
			}
		case rs.Retries != 0:
			t.Fatalf("round %d trace: unexpected retries %d", round, rs.Retries)
		}
		if round > killAfter && rs.Failed != 1 {
			t.Fatalf("round %d trace: failed %d, want 1 (killed worker)", round, rs.Failed)
		}
		if rs.BytesSent <= 0 || rs.BytesRecv <= 0 {
			t.Fatalf("round %d trace: bytes sent/recv %d/%d, want positive", round, rs.BytesSent, rs.BytesRecv)
		}
	}
}

// TestHookParticipantsRetainable: RoundInfo.Participants must be safe for
// hooks to retain — the historical implementation aliased the engine's
// selection buffer, which the next round overwrites in place.
func TestHookParticipantsRetainable(t *testing.T) {
	p := testPartition(6, 20, 3, 3, 5)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["partial"] // cohorts vary round to round
	cfg.Rounds = 8

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	retained := make(map[int][]int)
	copies := make(map[int][]int)
	eng.OnRound(func(info engine.RoundInfo) error {
		retained[info.Round] = info.Participants
		copies[info.Round] = append([]int(nil), info.Participants...)
		return nil
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	distinct := false
	for r, want := range copies {
		got := retained[r]
		if len(got) != len(want) {
			t.Fatalf("round %d: retained slice resized to %v, want %v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: retained participants corrupted: %v, want %v", r, got, want)
			}
		}
		for r2, other := range copies {
			if r2 != r && len(other) > 0 && len(want) > 0 && &retained[r][0] == &retained[r2][0] {
				t.Fatalf("rounds %d and %d share a participants buffer", r, r2)
			}
		}
		if len(want) > 0 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("no round had participants — the test is vacuous")
	}
}

// TestRunCancellation: a context cancelled mid-run stops between rounds,
// returns ctx.Err(), and leaves the engine resumable — finishing the
// remaining rounds afterwards produces a complete series.
func TestRunCancellation(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 3)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 10

	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng.OnRound(func(info engine.RoundInfo) error {
		if info.Round == 3 {
			cancel()
		}
		return nil
	})
	s, err := eng.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if last, _ := s.Last(); last.Round != 3 {
		t.Fatalf("partial series ends at %d, want 3", last.Round)
	}

	// The same engine resumes and completes the remaining rounds.
	s2, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first := s2.Points[0].Round; first != 4 {
		t.Fatalf("resumed run starts at round %d, want 4", first)
	}
	last, _ := s2.Last()
	if last.Round != cfg.Rounds {
		t.Fatalf("resumed run ends at %d, want %d", last.Round, cfg.Rounds)
	}
}
