package main

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/transport"
)

// system is one workload built from one seed. prepare makes it ready to
// run (its duration, with the data generation before it, is setup_s);
// episode runs the fixed round budget once; verify checks what came out,
// untimed; close stops everything prepare started.
type system interface {
	prepare(t *tracing) error
	episode() (*episode, error)
	verify(ep *episode) error
	close()
}

// engineSystem covers the four workloads the bench drives through an
// engine of its own: in-process (convex100, cnn10) and TCP (tcp8_*).
type engineSystem struct {
	name      string
	sz        sizing
	seed      int64
	task      fedproxvr.Task
	generateS float64

	t     *tracing
	eng   *engine.Engine
	clock *roundClock

	// TCP only
	codec     transport.Codec
	coord     *transport.Coordinator
	workers   sync.WaitGroup
	workerErr chan error
	handshake time.Duration
}

func newEngineSystem(name string, sz sizing, seed int64) (*engineSystem, error) {
	t0 := time.Now()
	task, err := buildTask(name, sz)
	if err != nil {
		return nil, err
	}
	if name == "cnn10" {
		// The spiky non-convex curve turns a different minibatch stream into
		// a +-50% different final loss; cnn10 keeps one stream so its
		// convergence numbers can carry a bound (README, "what the seed changes").
		seed = dataSeed
	}
	s := &engineSystem{name: name, sz: sz, seed: seed, task: task, generateS: time.Since(t0).Seconds()}
	if name == "tcp8_topk" {
		s.codec = transport.CodecTopK
	}
	return s, nil
}

func (s *engineSystem) tcp() bool { return s.name == "tcp8_f64" || s.name == "tcp8_topk" }

// config is the workload's training configuration; parallel picks the
// pooled executor for in-process runs.
func (s *engineSystem) config(parallel bool) fedproxvr.Config {
	mu := 0.1
	if s.name == "cnn10" {
		mu = 0.01 // the paper's non-convex panels
	}
	cfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, s.sz.smoothL, mu, s.sz.tau, s.sz.batch, s.sz.rounds)
	cfg.Seed = s.seed
	cfg.Test = s.task.Test
	cfg.EvalEvery = s.sz.evalEvery
	cfg.Parallel = parallel
	return cfg
}

func (s *engineSystem) initial() []float64 {
	if s.task.InitW != nil {
		return s.task.InitW
	}
	return make([]float64, s.task.Model.Dim())
}

func (s *engineSystem) prepare(t *tracing) error {
	s.t = t
	if s.tcp() {
		if err := s.launchFleet(); err != nil {
			return err
		}
	} else {
		r, err := fedproxvr.NewRunner(s.task, s.config(true))
		if err != nil {
			return err
		}
		s.eng = r.Engine()
		if t != nil {
			for _, d := range r.Devices() {
				d.Solver.SetPhaseHook(t.phaseHook)
			}
		}
	}
	s.clock = newRoundClock(s.sz)
	if t != nil {
		t.attach(s.eng, s.clock)
	}
	return nil
}

// launchFleet starts one transport.Worker goroutine per device and
// completes the coordinator handshake over a bench-owned listener. The
// fleet is the system under test, not a load generator.
func (s *engineSystem) launchFleet() error {
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if s.t != nil {
		ln = &countingListener{Listener: ln, stats: &s.t.conn, timed: &s.t.on}
	}
	addr := ln.Addr().String()
	n := len(s.task.Part.Clients)
	s.workerErr = make(chan error, n) // one send per worker at most
	for k := 0; k < n; k++ {
		s.workers.Add(1)
		go func(k int) {
			defer s.workers.Done()
			w, err := transport.NewWorker(addr, k, s.task.Part.Clients[k], s.task.Model, s.seed)
			if err != nil {
				s.workerErr <- err
				return
			}
			if s.t != nil {
				w.EnableTrace()
			}
			if err := w.Serve(); err != nil {
				s.workerErr <- err
			}
		}(k)
	}
	s.coord, err = transport.NewCoordinatorOn(ln, n, 10*time.Second)
	if err != nil {
		return err
	}
	s.handshake = time.Since(t0)
	s.coord.SetCodec(s.codec)
	cfg := s.config(false)
	s.eng, err = s.coord.Engine(s.initial(), cfg, s.task.Model.Clone(), s.task.Part.Clients)
	return err
}

func (s *engineSystem) episode() (*episode, error) {
	var sent0, recv0 int64
	if s.coord != nil {
		sent0, recv0 = s.coord.Bandwidth()
	}
	ep, err := s.clock.run(s.eng)
	if err != nil {
		return nil, err
	}
	if s.coord != nil {
		sent, recv := s.coord.Bandwidth()
		ep.wireBytes = float64(sent-sent0+recv-recv0) / float64(s.sz.rounds)
	}
	return ep, nil
}

func (s *engineSystem) close() {
	if s.coord != nil {
		s.coord.Shutdown()
		s.workers.Wait()
		s.coord.Close()
		s.coord = nil
	}
	if s.eng != nil {
		if p, ok := s.eng.Executor().(*engine.Parallel); ok {
			p.Close()
		}
	}
}

// reference trains the same configuration and seed on the plain
// Sequential in-process executor: the single-worker baseline every backend
// must reproduce.
func (s *engineSystem) reference() ([]float64, float64, error) {
	r, err := fedproxvr.NewRunner(s.task, s.config(false))
	if err != nil {
		return nil, 0, err
	}
	series := r.Run()
	last, _ := series.Last()
	return r.Global(), last.TrainLoss, nil
}

func (s *engineSystem) verify(ep *episode) error {
	if err := verifyCommon(s.sz, ep); err != nil {
		return err
	}
	select {
	case err := <-s.workerErr:
		return fmt.Errorf("worker: %w", err)
	default:
	}
	if !s.tcp() {
		return nil
	}
	want, wantLoss, err := s.reference()
	if err != nil {
		return err
	}
	dim := s.task.Model.Dim()
	topK := 0
	if s.codec == transport.CodecTopK {
		topK = transport.TopKFor(transport.DefaultTopKFraction, dim)
		if d := ep.finalLoss - wantLoss; math.IsNaN(d) || d > s.sz.topkBound {
			return fmt.Errorf("topk final loss %.6f exceeds the exact run's %.6f by more than %.3g", ep.finalLoss, wantLoss, s.sz.topkBound)
		}
	} else if !reflect.DeepEqual(ep.final[0], want) {
		return fmt.Errorf("TCP float64 model is not bit-identical to the in-process Sequential run")
	}
	closed := float64(len(s.task.Part.Clients) * transport.RoundWireSize(s.codec, dim, topK, s.t != nil))
	if s.t == nil && ep.wireBytes != closed {
		return fmt.Errorf("wire bytes per round %.1f, closed form %.1f", ep.wireBytes, closed)
	}
	return nil
}

// verifyCommon holds for every workload: nothing failed, every loss was
// finite, and the target was reached inside the budget.
func verifyCommon(sz sizing, ep *episode) error {
	if !ep.finite {
		return fmt.Errorf("a measured loss was not finite")
	}
	if ep.failed != 0 {
		return fmt.Errorf("%d of %d device-rounds failed", ep.failed, ep.attempted)
	}
	if ep.toTargetN == 0 {
		return fmt.Errorf("target loss %.4g not reached in %d rounds (final %.6f)", sz.target, sz.rounds, ep.finalLoss)
	}
	return nil
}
