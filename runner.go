package fedproxvr

import (
	"context"
	"fmt"
	"math/rand"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
)

// Runner drives a prepared federated run in-process: an engine over a
// sequential or parallel executor (see engine.NewInProcess), plus
// the paper's local-accuracy diagnostic. The engine is exposed for hooks,
// stats, checkpointing (internal/checkpoint) and measurement.
type Runner struct {
	eng     *engine.Engine
	devices []*engine.Device

	diag        []float64     // local model reported by LocalAccuracy's solve
	diagScratch optim.Scratch // the memory that solve runs in, built on first use
	diagRNG     *rand.Rand    // dedicated stream: diagnostics never touch device RNGs
}

// NewRunner prepares a federated run on a task: the task's test set is
// used unless cfg overrides it, and the task's initialization (if any) is
// the initial global model. A runner owns no goroutine: with cfg.Parallel
// its rounds fan out over the process-wide helper pool, so there is
// nothing to stop when it is dropped.
func NewRunner(task Task, cfg Config) (*Runner, error) {
	if task.Model == nil || task.Part == nil {
		return nil, fmt.Errorf("fedproxvr: task needs Model and Part")
	}
	if cfg.Test == nil {
		cfg.Test = task.Test
	}
	eng, devices, err := engine.NewInProcess(task.Model, task.Part, cfg, task.InitW)
	if err != nil {
		return nil, err
	}
	return &Runner{eng: eng, devices: devices}, nil
}

// Engine exposes the underlying engine (hooks, stats, tracing, checkpoint
// resume, swapping the executor in decorator runtimes, measurement).
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Devices exposes the simulated devices (read-only use).
func (r *Runner) Devices() []*engine.Device { return r.devices }

// Global returns the current global model (aliased; copy before mutating).
func (r *Runner) Global() []float64 { return r.eng.Global() }

// Step performs one global iteration of Algorithm 1: broadcast, local
// solve on the selected devices, weighted aggregation. It returns the list
// of participating device IDs (after failure injection). If every device
// drops out, the global model is left unchanged.
func (r *Runner) Step() []int {
	selected, _, err := r.eng.Step()
	if err != nil {
		// In-process executors cannot fail and partitions carry positive
		// weights, so this is unreachable outside programmer error.
		panic(err)
	}
	return selected
}

// Run executes cfg.Rounds global iterations from the current global model
// and returns the recorded series. The round-0 point (before any update)
// is included so plots start at the common initialization.
func (r *Runner) Run() *Series {
	s, err := r.eng.Run(context.Background())
	if err != nil {
		panic(err) // see Step: unreachable in-process
	}
	return s
}

// RunContext is Run with cancellation: it stops between rounds when ctx is
// done, returning the series so far alongside ctx.Err(). The global model
// stays at the last completed round, so the run is resumable (see
// internal/checkpoint).
func (r *Runner) RunContext(ctx context.Context) (*Series, error) {
	return r.eng.Run(ctx)
}

// LocalAccuracy measures the paper's local criterion (11) on device id at
// the current global model: it runs one local solve and returns
// θ̂ = ‖∇J_n(w_n)‖ / ‖∇F_n(w̄)‖. The solve happens on runner-owned scratch
// with a dedicated RNG stream, so the diagnostic leaves the device's local
// model, RNG, and gradient-evaluation count untouched and the reported
// GradEvals series stays a faithful cost measure of training alone.
func (r *Runner) LocalAccuracy(id int) float64 {
	d := r.devices[id]
	cfg := r.eng.Config()
	w := r.eng.Global()
	if r.diag == nil {
		r.diag = make([]float64, len(w))
		r.diagRNG = randx.NewStream(cfg.Seed, 900_001)
	}
	sc := &r.diagScratch
	d.Solver.Solve(sc, d.Shard, w, r.diag, cfg.Local, r.diagRNG, nil)
	lhs := d.Solver.SurrogateGradNorm(sc, d.Shard, r.diag, w, cfg.Local.Mu)
	rhs := d.Solver.LocalGradNorm(sc, d.Shard, w)
	if rhs == 0 {
		return 0
	}
	return lhs / rhs
}
