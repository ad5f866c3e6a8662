package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/testx"
)

// train builds c's engine from w0, runs it to the end and returns a copy
// of the final global model with the series.
func train(c *Coordinator, w0 []float64, cfg engine.Config, evalModel models.Model, trainSets []*data.Dataset) ([]float64, *metrics.Series, error) {
	eng, err := c.Engine(w0, cfg, evalModel, trainSets)
	if err != nil {
		return nil, nil, err
	}
	series, err := eng.Run(context.Background())
	if err != nil {
		return nil, series, err
	}
	return mathx.Clone(eng.Global()), series, nil
}

// Round is one flat round over every worker outside any engine: it
// broadcasts the anchor, gathers the local models and returns them indexed
// by client ID. A worker that failed the round leaves a nil entry; the
// error is non-nil only for run-fatal conditions (every worker dead, quorum
// floor violated too many rounds in a row). The returned slices are the
// caller's (decode buffers are cloned).
func (c *Coordinator) Round(round int, anchor []float64, local engine.Config) ([][]float64, error) {
	all := make([]int, len(c.clients))
	for i := range all {
		all[i] = i
	}
	var res engine.RoundResult
	spec := engine.RoundSpec{Round: round, Anchor: anchor, Selected: all}
	if err := c.roundSubset(context.Background(), local.Local, spec, &res); err != nil {
		return nil, err
	}
	for i, v := range res.Locals {
		if v != nil {
			res.Locals[i] = mathx.Clone(v)
		}
	}
	return res.Locals, nil
}

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

// launchTwoPhase binds a loopback listener, starts one worker goroutine per
// shard against its address, completes the coordinator handshake, and
// returns the coordinator plus a WaitGroup done when all workers exit.
// Every worker's Serve must return nil, except those listed in lost: the
// test closes their connections from the coordinator's side, and their
// Serve must fail saying the coordinator closed before Done.
func launchTwoPhase(t testing.TB, p *data.Partition, m models.Model, seed int64, lost ...int) (*Coordinator, *sync.WaitGroup) {
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
			w, err := NewWorker(addr, k, p.Clients[k], m, seed)
			if err != nil {
				t.Errorf("worker %d: %v", k, err)
				return
			}
			err = w.Serve()
			switch {
			case slices.Contains(lost, k):
				if err == nil || !strings.Contains(err.Error(), "closed the connection before Done") {
					t.Errorf("worker %d, closed by the coordinator, served to %v", k, err)
				}
			case err != nil:
				t.Errorf("worker %d serve: %v", k, err)
			}
		}(k)
	}
	c, err := NewCoordinatorOn(ln, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, &wg
}

func TestDistributedMatchesInProcessExactly(t *testing.T) {
	p := testPartition(4, 30, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 6)
	cfg.Seed = 42

	// In-process reference.
	r, _, err := engine.NewInProcess(m, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := mathx.Clone(r.Global())

	// Distributed run.
	c, wg := launchTwoPhase(t, p, m, cfg.Seed)
	defer c.Close()
	w0 := make([]float64, m.Dim())
	got, series, err := train(c, w0, cfg, m.Clone(), p.Clients)
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distributed model differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if len(series.Points) != cfg.Rounds+1 {
		t.Fatalf("series has %d points, want %d", len(series.Points), cfg.Rounds+1)
	}
	last, _ := series.Last()
	if last.TrainLoss >= series.Points[0].TrainLoss {
		t.Fatal("distributed training did not reduce loss")
	}
}

// TestCoordinatorGapUnmeasured: the coordinator's evaluator holds no
// devices, so a TCP run records the gap ‖∇F̄‖² as NaN at every point,
// never a 0 that reads as converged.
func TestCoordinatorGapUnmeasured(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 5)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 3, 4, 2)
	cfg.Seed = 9
	c, wg := launchTwoPhase(t, p, m, cfg.Seed)
	defer c.Close()
	_, series, err := train(c, make([]float64, m.Dim()), cfg, m.Clone(), p.Clients)
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()
	for _, pt := range series.Points {
		if !math.IsNaN(pt.GradNormSq) {
			t.Fatalf("round %d: GradNormSq = %v, want NaN", pt.Round, pt.GradNormSq)
		}
	}
}

func TestCoordinatorWeights(t *testing.T) {
	p := testPartition(3, 10, 2, 2, 2)
	c0 := p.Clients[0]
	c0.X, c0.Y = c0.X[:5*c0.Dim], c0.Y[:5] // size 5
	m := models.NewSoftmax(2, 2)
	c, wg := launchTwoPhase(t, p, m, 7)
	defer c.Close()
	w := c.Weights()
	total := 5.0 + 10 + 10
	if mathx.Nrm2Sq([]float64{w[0] - 5/total, w[1] - 10/total, w[2] - 10/total}) > 1e-24 {
		t.Fatalf("weights = %v", w)
	}
	c.Shutdown()
	wg.Wait()
}

func TestCoordinatorRejectsDuplicateID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	type result struct {
		c   *Coordinator
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		c, err := NewCoordinatorOn(ln, 2, 2*time.Second)
		resCh <- result{c, err}
	}()
	ds := data.New(2, 2, 1)
	ds.AppendClass([]float64{1, 2}, 0)
	m := models.NewSoftmax(2, 2)
	w1, err := NewWorker(addr, 0, ds, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := NewWorker(addr, 0, ds, m, 1) // duplicate id
	if err == nil {
		defer w2.Close()
	}
	// Both dial from Serve; the refused fleet's Serve errors are expected.
	go w1.Serve()
	go w2.Serve()
	res := <-resCh
	if res.err == nil {
		res.c.Close()
		t.Fatal("coordinator should reject duplicate client id")
	}
	if !strings.Contains(res.err.Error(), "duplicate") && !strings.Contains(res.err.Error(), "bad") {
		t.Fatalf("unexpected error: %v", res.err)
	}
}

func TestWorkerCleanShutdownOnDone(t *testing.T) {
	p := testPartition(1, 5, 2, 2, 3)
	m := models.NewSoftmax(2, 2)
	c, wg := launchTwoPhase(t, p, m, 1)
	defer c.Close()
	c.Shutdown()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("workers did not exit after Done")
	}
}

func TestTrainValidatesConfig(t *testing.T) {
	p := testPartition(1, 5, 2, 2, 4)
	m := models.NewSoftmax(2, 2)
	c, wg := launchTwoPhase(t, p, m, 1)
	defer c.Close()
	bad := engine.Config{Rounds: 0, Local: optim.LocalConfig{Eta: 0.1, Tau: 1, Batch: 1}}
	if _, _, err := train(c, make([]float64, m.Dim()), bad, nil, nil); err == nil {
		t.Fatal("invalid config should error")
	}
	c.Shutdown()
	wg.Wait()
}

func TestQuantizedTrainingAndBandwidth(t *testing.T) {
	// Use a model large enough (1010 params) that vector payloads dominate
	// protocol overhead.
	p := testPartition(3, 20, 100, 10, 5)
	m := models.NewSoftmax(100, 10)
	cfg := engine.FedProxVR(optim.SVRG, 6, 1, 0.1, 5, 4, 5)
	cfg.Seed = 10

	run := func(codec Codec) (loss float64, sent int64) {
		c, wg := launchTwoPhase(t, p, m, cfg.Seed)
		defer c.Close()
		c.SetCodec(codec)
		w0 := make([]float64, m.Dim())
		_, series, err := train(c, w0, cfg, m.Clone(), p.Clients)
		if err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		last, _ := series.Last()
		s, _ := c.Bandwidth()
		return last.TrainLoss, s
	}
	loss64, sent64 := run(CodecFloat64)
	loss32, sent32 := run(CodecFloat32)
	if math.Abs(loss64-loss32) > 0.05*(1+math.Abs(loss64)) {
		t.Fatalf("quantized training diverged: %v vs %v", loss32, loss64)
	}
	if sent32 >= sent64 {
		t.Fatalf("float32 codec did not reduce bandwidth: %d vs %d bytes", sent32, sent64)
	}
	if float64(sent32) > 0.75*float64(sent64) {
		t.Fatalf("float32 codec saved too little: %d vs %d bytes", sent32, sent64)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	p := testPartition(2, 10, 3, 2, 6)
	m := models.NewSoftmax(3, 2)
	c, wg := launchTwoPhase(t, p, m, 1)
	defer c.Close()
	sent0, recv0 := c.Bandwidth()
	if recv0 == 0 {
		t.Fatal("hello messages should already count")
	}
	cfg := engine.FedAvg(5, 1, 2, 2, 1)
	cfg.Seed = 2
	if _, _, err := train(c, make([]float64, m.Dim()), cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	sent1, recv1 := c.Bandwidth()
	if sent1 <= sent0 || recv1 <= recv0 {
		t.Fatal("round traffic not accounted")
	}
	c.Shutdown()
	wg.Wait()
}

func TestCoordinatorSurvivesDeadWorkerAsDropout(t *testing.T) {
	p := testPartition(2, 10, 3, 2, 7)
	m := models.NewSoftmax(3, 2)
	c, wg := launchTwoPhase(t, p, m, 1, 0)
	defer c.Close()
	// One healthy round first.
	cfg := engine.FedAvg(5, 1, 2, 2, 1)
	cfg.Seed = 3
	w0 := make([]float64, m.Dim())
	if _, _, err := train(c, w0, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	var faults []int
	c.SetFaultHandler(func(id int, err error) { faults = append(faults, id) })
	// Kill worker 0's connection from the server side, then run a round:
	// the failure must degrade into a dropout — the survivor's model is
	// returned, worker 0's slot is nil, and no error surfaces.
	c.clients[0].conn.Close()
	locals, err := c.Round(99, w0, cfg)
	if err != nil {
		t.Fatalf("round with one dead worker should degrade, got %v", err)
	}
	if locals[0] != nil {
		t.Fatal("dead worker should have a nil slot")
	}
	if locals[1] == nil {
		t.Fatal("surviving worker should still report")
	}
	if len(faults) != 1 || faults[0] != 0 {
		t.Fatalf("fault handler saw %v, want [0]", faults)
	}
	// A later round skips the dead worker without a fresh fault callback.
	locals, err = c.Round(100, w0, cfg)
	if err != nil || locals[0] != nil || locals[1] == nil {
		t.Fatalf("second degraded round: locals=%v err=%v", locals, err)
	}
	if len(faults) != 1 {
		t.Fatalf("dead-worker skip should not re-fire the fault handler: %v", faults)
	}
	c.Shutdown()
	wg.Wait()
}

// launchWithWorkers is launchTwoPhase but hands back the worker objects so
// tests can kill and restart individual workers.
func launchWithWorkers(t *testing.T, p *data.Partition, m models.Model, seed int64) (*Coordinator, []*Worker, *sync.WaitGroup) {
	t.Helper()
	n := len(p.Clients)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	workers := make([]*Worker, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		w, err := NewWorker(addr, k, p.Clients[k], m, seed)
		if err != nil {
			t.Fatal(err)
		}
		workers[k] = w
		wg.Add(1)
		go func(w *Worker, k int) {
			defer wg.Done()
			if err := w.Serve(); err != nil {
				t.Errorf("worker %d serve: %v", k, err)
			}
		}(w, k)
	}
	c, err := NewCoordinatorOn(ln, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, workers, &wg
}

// TestWorkerRejoinAfterFailure kills worker 1 mid-run, restarts it a few
// rounds later, and asserts the run finishes all rounds with the rejoined
// worker participating again.
func TestWorkerRejoinAfterFailure(t *testing.T) {
	p := testPartition(2, 12, 3, 2, 9)
	m := models.NewSoftmax(3, 2)
	seed := int64(21)
	c, workers, wg := launchWithWorkers(t, p, m, seed)
	defer c.Close()
	addr := c.Addr().String()

	cfg := engine.FedAvg(5, 1, 4, 2, 8)
	cfg.Seed = seed
	w0 := make([]float64, m.Dim())
	eng, err := c.Engine(w0, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	participants := make(map[int][]int)
	var rwg sync.WaitGroup
	eng.OnRound(func(info engine.RoundInfo) error {
		participants[info.Round] = info.Participants
		switch info.Round {
		case 2:
			workers[1].Close()
		case 5:
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				w, err := NewWorker(addr, 1, p.Clients[1], m, seed)
				if err != nil {
					t.Errorf("rejoin: %v", err)
					return
				}
				if err := w.Serve(); err != nil {
					t.Errorf("rejoined worker serve: %v", err)
				}
			}()
			if err := c.AwaitRejoin(1, 5*time.Second); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatalf("run with a rejoining worker should complete: %v", err)
	}
	if got := participants[4]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("round 4 should see only the survivor, got %v", got)
	}
	if got := participants[cfg.Rounds]; len(got) != 2 {
		t.Fatalf("final round should include the rejoined worker, got %v", got)
	}
	c.Shutdown()
	rwg.Wait()
	wg.Wait()
}

// TestQuorumAbortsAfterMaxFailedRounds: with a quorum of 2 over a cohort
// of 2, one dead worker makes every round sub-quorum; the run must skip up
// to MaxFailedRounds rounds and then abort instead of spinning forever.
func TestQuorumAbortsAfterMaxFailedRounds(t *testing.T) {
	p := testPartition(2, 10, 3, 2, 11)
	m := models.NewSoftmax(3, 2)
	c, wg := launchTwoPhase(t, p, m, 1, 1)
	defer c.Close()
	c.SetFaultPolicy(FaultPolicy{MinParticipants: 2, MaxFailedRounds: 1})
	cfg := engine.FedAvg(5, 1, 2, 2, 10)
	cfg.Seed = 4
	w0 := make([]float64, m.Dim())
	c.clients[1].conn.Close()
	_, _, err := train(c, w0, cfg, nil, nil)
	if err == nil {
		t.Fatal("sub-quorum rounds beyond MaxFailedRounds should abort")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("unexpected abort error: %v", err)
	}
	c.Shutdown()
	wg.Wait()
}

// TestNegativeRetriesStillAsksOnce: a negative MaxRetries means no retry,
// not no request. Unclamped, askWorker's attempt loop never ran: every
// worker counted as reported, nothing was sent and no round moved the
// model.
func TestNegativeRetriesStillAsksOnce(t *testing.T) {
	p := testPartition(2, 10, 3, 2, 11)
	m := models.NewSoftmax(3, 2)
	c, wg := launchTwoPhase(t, p, m, 1)
	defer c.Close()
	c.SetFaultPolicy(FaultPolicy{MaxRetries: -1})
	cfg := engine.FedAvg(5, 1, 2, 2, 3)
	cfg.Seed = 4
	w0 := make([]float64, m.Dim())
	w, _, err := train(c, w0, cfg, nil, nil)
	sent, _ := c.Bandwidth()
	c.Shutdown()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sent == 0 {
		t.Fatal("no request was sent")
	}
	if slices.Equal(w, w0) {
		t.Fatal("three rounds left the model at w0")
	}
}

// TestCoordinatorRejectsBadFleet: construction admits a fleet only when
// its IDs are 0..n-1 once each, its device ranges tile [0, N) in ID order,
// its peers share one role and it holds training samples (an all-empty
// cohort would yield NaN aggregation weights, an overflowing total
// negative ones). Each broken fleet, sent as
// raw Hellos, fails construction with an error saying what is wrong.
func TestCoordinatorRejectsBadFleet(t *testing.T) {
	node := func(id, lo, ndev int) *Hello {
		return &Hello{ClientID: id, LoDevice: lo, NumDevices: ndev, NumSamples: 10, Partial: true}
	}
	for _, tc := range []struct {
		name   string
		hellos []*Hello
		want   string
	}{
		{"shard gap", []*Hello{node(0, 0, 2), node(1, 3, 2)}, "peer 1 owns devices [3,+2), expected range to start at 2"},
		{"shard overlap", []*Hello{node(0, 0, 3), node(1, 2, 2)}, "peer 1 owns devices [2,+2), expected range to start at 3"},
		{"flat id out of range", []*Hello{workerHello(0, 10), workerHello(2, 10)}, "bad or duplicate client id 2"},
		{"mixed fleet", []*Hello{workerHello(0, 10), node(1, 1, 2)}, "peer 1 and peer 0 declare different roles"},
		{"zero-sample cohort", []*Hello{workerHello(0, 0), workerHello(1, 0)}, "no training samples"},
		{"sample total overflow", []*Hello{workerHello(0, math.MaxInt64), workerHello(1, 1)}, "peer 1's sample count 1 overflows the fleet total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range tc.hellos {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := conn.Write(marshalHello(nil, h)); err != nil {
					t.Fatal(err)
				}
			}
			c, err := NewCoordinatorOn(ln, len(tc.hellos), 2*time.Second)
			if err == nil {
				c.Close()
				t.Fatal("construction admitted the fleet")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("construction error %q, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestCoordinatorRejectsNegativeSampleCount: a peer whose Hello claims a
// negative sample count next to a real worker would get a negative
// aggregation weight, so WeightedMean would extrapolate instead of
// averaging. Construction fails with an error naming the peer.
func TestCoordinatorRejectsNegativeSampleCount(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := testPartition(1, 10, 3, 2, 1)
	w, err := NewWorker(ln.Addr().String(), 0, p.Clients[0], models.NewSoftmax(3, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go w.Serve() // fails with the refused fleet
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(marshalHello(nil, workerHello(1, -5))); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinatorOn(ln, 2, 2*time.Second)
	if err == nil {
		defer c.Close()
		t.Fatalf("construction admitted a peer with -5 samples: weights %v", c.Weights())
	}
	if !strings.Contains(err.Error(), "peer 1 claims -5 training samples") {
		t.Fatalf("construction error %q does not name peer 1's sample count", err)
	}
}

func TestRoundTimeoutFires(t *testing.T) {
	// A coordinator whose "worker" never replies: Round must time out.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan struct{})
	done2 := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		// Handshake like a worker, then go silent.
		_, _ = conn.Write(marshalHello(nil, workerHello(0, 5)))
		<-done2
	}()
	c, err := NewCoordinatorOn(ln, 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := engine.FedAvg(5, 1, 1, 1, 1)
	start := time.Now()
	_, err = c.Round(1, make([]float64, 4), cfg)
	if err == nil {
		t.Fatal("silent worker should time the round out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took far too long")
	}
	close(done2)
	<-done
}

// legacyGobHello is what a worker on the removed gob wire opened its
// connection with: a gob stream starts with a small uvarint message length,
// never the frame magic.
func legacyGobHello(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Hello{ClientID: 0, NumSamples: 5}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandshakeRejectsForeignPeers: the handshake accepts a well-formed
// Hello frame and nothing else. A peer that opens with another protocol, a
// stray byte, an unknown frame type, the tree nodes' old hello (type 4) or a
// Hello claiming a negative sample count fails construction with a
// "transport: hello:" error, and on the rejoin accept path is closed within
// the handshake timeout, parked nowhere, with the live cohort still
// serving rounds.
func TestHandshakeRejectsForeignPeers(t *testing.T) {
	const timeout = 300 * time.Millisecond
	cases := []struct {
		name  string
		first []byte
		want  string
	}{
		{"gob hello", legacyGobHello(t), "bad magic"},
		{"stray byte then silence", []byte{0x2A}, "timeout"},
		{"unknown frame type", []byte{frameMagic, 0x7F, 0, 0, 0, 0}, "expected hello, got frame type 127"},
		{"old tree-node hello", []byte{frameMagic, 4, 0, 0, 0, 0}, "expected hello, got frame type 4"},
		{"negative sample count", marshalHello(nil, workerHello(0, -5)), "peer 0 claims -5 training samples"},
	}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	dial := func(addr string, first []byte) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(first); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	// A live two-worker cohort for the rejoin accept path.
	p := testPartition(2, 10, 3, 2, 6)
	m := models.NewSoftmax(3, 2)
	cfg := engine.FedAvg(5, 1, 2, 2, 1)
	ln := listen()
	var wg sync.WaitGroup
	for k := range p.Clients {
		w, err := NewWorker(ln.Addr().String(), k, p.Clients[k], m, 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve()
		}()
	}
	c, err := NewCoordinatorOn(ln, len(p.Clients), timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := listen()
			conn := dial(fresh.Addr().String(), tc.first)
			defer conn.Close()
			start := time.Now()
			bad, err := NewCoordinatorOn(fresh, 1, timeout)
			if err == nil {
				bad.Close()
				t.Fatal("construction admitted a foreign peer")
			}
			if !strings.HasPrefix(err.Error(), "transport: hello:") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("construction error %q, want a transport: hello: error naming %q", err, tc.want)
			}
			if took := time.Since(start); took > 10*timeout {
				t.Fatalf("construction took %v to reject", took)
			}

			rejoin := dial(c.Addr().String(), tc.first)
			defer rejoin.Close()
			rejoin.SetReadDeadline(time.Now().Add(10 * timeout))
			var ne net.Error
			if _, err := rejoin.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("rejoin path did not close the foreign peer (read: %v)", err)
			}
			c.mu.Lock()
			parked := len(c.pending)
			c.mu.Unlock()
			if parked != 0 {
				t.Fatalf("%d foreign connections parked for adoption", parked)
			}
			locals, err := c.Round(i+1, make([]float64, m.Dim()), cfg)
			if err != nil || locals[0] == nil || locals[1] == nil {
				t.Fatalf("cohort unusable after the rejection: locals=%v err=%v", locals, err)
			}
		})
	}
	c.Shutdown()
	wg.Wait()
}

// cyclesLeaveNoGoroutines runs one fleet cycle to start the process-wide
// pool it uses (the tensor helper pool grows on the first fan-out), then
// checks n more leave no goroutine behind. The rejoin accept loop exits on
// its own once Close shuts the listener, hence the grace period.
func cyclesLeaveNoGoroutines(t *testing.T, n int, cycle func()) {
	t.Helper()
	cycle()
	testx.NoGoroutineGrowth(t, n, 5*time.Second, cycle)
}

// TestFleetCycleLeavesNoGoroutines: launch → Train → Shutdown → Close
// leaves nothing behind — no worker, per-connection exchange or rejoin
// accept goroutine outlives its fleet.
func TestFleetCycleLeavesNoGoroutines(t *testing.T) {
	p := testPartition(2, 10, 3, 2, 6)
	m := models.NewSoftmax(3, 2)
	cfg := engine.FedAvg(5, 1, 2, 2, 2)
	cyclesLeaveNoGoroutines(t, 3, func() {
		c, wg := launchTwoPhase(t, p, m, 1)
		if _, _, err := train(c, make([]float64, m.Dim()), cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		c.Close()
	})
}

// TestRejoinCycleLeavesNoGoroutines: a chaos crash tears a connection down
// (ending its exchange goroutine), the worker rejoins and is adopted (a new
// exchange goroutine), and Close ends everything — no goroutine outlives
// the cycle, the rejoin handshake's included.
func TestRejoinCycleLeavesNoGoroutines(t *testing.T) {
	const crashRound = 2
	p := testPartition(2, 10, 3, 2, 6)
	m := models.NewSoftmax(3, 2)
	cfg := engine.FedAvg(5, 1, 2, 2, 4)
	sched := &chaos.Schedule{Events: []chaos.Event{{Device: 1, Round: crashRound, Kind: chaos.Crash}}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	cyclesLeaveNoGoroutines(t, 2, func() {
		c, wg := launchTracedWorkers(t, p, m, 1, map[int]*chaos.Schedule{1: sched})
		eng, err := c.Engine(make([]float64, m.Dim()), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var last []int
		eng.OnRound(func(info engine.RoundInfo) error {
			last = info.Participants
			if info.Round == crashRound {
				return c.AwaitRejoin(1, 5*time.Second)
			}
			return nil
		})
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(last) != 2 {
			t.Fatalf("final round saw %v: the crashed worker was never adopted back", last)
		}
		c.Shutdown()
		wg.Wait()
		c.Close()
	})
}

// TestTreeCycleLeavesNoGoroutines: the same guarantee for a tree
// coordinator over aggregator nodes.
func TestTreeCycleLeavesNoGoroutines(t *testing.T) {
	p := testPartition(6, 10, 3, 3, 6)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedAvg(5, 1, 2, 2, 3)
	cyclesLeaveNoGoroutines(t, 2, func() {
		c, wg := launchTree(t, p, m, 1, 3, nil, false)
		eng, err := c.Engine(make([]float64, m.Dim()), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		c.Close()
	})
}
