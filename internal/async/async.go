// Package async implements an asynchronous federated-learning runtime as a
// deterministic discrete-event simulation — the natural extension of the
// paper's synchronous Algorithm 1 to straggler-heavy fleets.
//
// Instead of synchronous rounds, every device continuously: pulls the
// current global model, runs the same proximal variance-reduced inner loop
// (optim.Solver), and pushes its local model; the server merges each
// arriving update immediately with a staleness-decayed mixing rate
//
//	w̄ ← (1−α)·w̄ + α·w_n,   α = α₀ · (1 + staleness)^(−p),
//
// where staleness counts how many server updates happened since the device
// pulled its anchor (FedAsync-style polynomial decay, α₀ = 0.6, p = 0.5).
// The server measures the global objective every Updates/50 applied
// updates (at least every one) and after the last. Device timing comes
// from a simnet.Fleet, so async and sync runs are comparable on the same
// simulated clock — the straggler-tolerance experiment in EXPERIMENTS.md
// uses exactly that comparison.
package async

import (
	"fmt"
	"math"
	"math/rand"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/simnet"
)

// Config parametrizes an asynchronous run.
type Config struct {
	Local optim.LocalConfig
	// Updates is the total number of device updates the server applies
	// (the async analogue of T·N).
	Updates int
	Seed    int64
}

// The mixing rule: base rate α₀ and staleness decay exponent p.
const (
	alpha0         = 0.6
	stalenessPower = 0.5
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Local.Validate(); err != nil {
		return err
	}
	if c.Updates < 1 {
		return fmt.Errorf("async: Updates must be ≥ 1, got %d", c.Updates)
	}
	return nil
}

// pending is one in-flight device computation in the event queue.
type pending struct {
	device    int
	finishAt  float64 // simulated completion time
	pulledVer int     // server version when the anchor was pulled
	local     []float64
}

// Runner drives the asynchronous event loop.
type Runner struct {
	cfg     Config
	eval    *engine.Evaluator // server-side measurement (shared with sync)
	part    *data.Partition
	fleet   *simnet.Fleet
	solver  optim.Solver  // every client trains the same model
	scratch optim.Scratch // the loop solves one dispatch at a time
	rngs    []*rand.Rand  // per-client minibatch streams
	weights []float64

	w       []float64
	version int
	now     float64
	queue   []pending
}

// NewRunner validates the configuration and builds the devices.
func NewRunner(m models.Model, part *data.Partition, fleet *simnet.Fleet, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	if len(part.Clients) == 0 {
		return nil, fmt.Errorf("async: partition has no clients")
	}
	if len(fleet.Profiles) < len(part.Clients) {
		return nil, fmt.Errorf("async: fleet has %d profiles for %d devices",
			len(fleet.Profiles), len(part.Clients))
	}
	r := &Runner{
		cfg:     cfg,
		part:    part,
		fleet:   fleet,
		weights: part.Weights(),
		solver:  optim.NewSolver(m),
		w:       make([]float64, m.Dim()),
	}
	r.eval = &engine.Evaluator{Model: m.Clone(), Clients: part.Clients, Weights: r.weights}
	r.rngs = make([]*rand.Rand, len(part.Clients))
	for i := range part.Clients {
		r.rngs[i] = randx.NewStream(cfg.Seed, int64(i)+7001)
	}
	return r, nil
}

// dispatch starts device id's next computation from the current global
// model and schedules its completion on the simulated clock.
func (r *Runner) dispatch(id int) {
	p := r.fleet.Profiles[id]
	duration := p.Downlink + float64(r.cfg.Local.Tau)*p.ComputePerIter + p.Uplink
	local := make([]float64, len(r.w))
	r.solver.Solve(&r.scratch, r.part.Clients[id], r.w, local, r.cfg.Local, r.rngs[id], nil)
	r.queue = append(r.queue, pending{
		device:    id,
		finishAt:  r.now + duration,
		pulledVer: r.version,
		local:     local,
	})
}

// popEarliest removes and returns the next completion (ties broken by
// device id so the simulation is deterministic).
func (r *Runner) popEarliest() pending {
	best := 0
	for i := 1; i < len(r.queue); i++ {
		if r.queue[i].finishAt < r.queue[best].finishAt ||
			(r.queue[i].finishAt == r.queue[best].finishAt &&
				r.queue[i].device < r.queue[best].device) {
			best = i
		}
	}
	p := r.queue[best]
	r.queue = append(r.queue[:best], r.queue[best+1:]...)
	return p
}

// Run executes the event loop until cfg.Updates device updates have been
// applied, returning the time-stamped loss trajectory.
func (r *Runner) Run() (*simnet.TimedSeries, error) {
	out := &simnet.TimedSeries{Name: "async"}
	measure := func() {
		out.Points = append(out.Points, simnet.TimedPoint{
			Time: r.now,
			Point: metrics.Point{
				Round:      r.version,
				TrainLoss:  r.globalLoss(),
				TestAcc:    math.NaN(),
				GradNormSq: math.NaN(),
			},
		})
	}
	every := max(1, r.cfg.Updates/50)
	for id := range r.part.Clients {
		r.dispatch(id)
	}
	measure()
	for r.version < r.cfg.Updates {
		p := r.popEarliest()
		r.now = p.finishAt
		staleness := r.version - p.pulledVer
		alpha := alpha0 * math.Pow(1+float64(staleness), -stalenessPower)
		// Weight by device data share relative to the mean share so the
		// expected aggregate matches the synchronous weighted average.
		alpha *= r.weights[p.device] * float64(len(r.part.Clients))
		if alpha > 1 {
			alpha = 1
		}
		for i := range r.w {
			r.w[i] = (1-alpha)*r.w[i] + alpha*p.local[i]
		}
		r.version++
		if r.version%every == 0 || r.version == r.cfg.Updates {
			measure()
		}
		r.dispatch(p.device)
	}
	return out, nil
}

// globalLoss evaluates F̄(w̄) over all device shards.
func (r *Runner) globalLoss() float64 { return r.eval.Loss(r.w) }
