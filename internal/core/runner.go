package core

import (
	"context"
	"math/rand"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
)

// Device is one simulated user device. It lives in internal/engine; the
// alias keeps the historical core API (and the transport worker's device
// construction) intact.
type Device = engine.Device

// NewDevice builds a device that trains m (see engine.NewDevice).
func NewDevice(id int, shard *data.Dataset, m models.Model, seed int64) *Device {
	return engine.NewDevice(id, shard, m, seed)
}

// Runner drives a full federated training run in-process: an engine over
// a sequential or pooled-parallel executor, plus the paper's diagnostic
// measurements (global loss, stationarity gap, local accuracy θ̂).
type Runner struct {
	eng     *engine.Engine
	eval    *engine.Evaluator
	devices []*Device

	diag        []float64     // local model reported by LocalAccuracy's solve
	diagScratch optim.Scratch // the memory that solve runs in, built on first use
	diagRNG     *rand.Rand    // dedicated stream: diagnostics never touch device RNGs
}

// NewRunner validates cfg and builds the devices.
func NewRunner(m models.Model, part *data.Partition, cfg Config) (*Runner, error) {
	if len(part.Clients) == 0 {
		return nil, errNoClients
	}
	devices := make([]*Device, len(part.Clients))
	for i, shard := range part.Clients {
		devices[i] = NewDevice(i, shard, m, cfg.Seed)
	}
	var exec engine.Executor
	if cfg.Parallel {
		exec = engine.NewParallel(devices, cfg.Local, 0)
	} else {
		exec = engine.NewSequential(devices, cfg.Local)
	}
	eng, err := engine.New(cfg, m.Dim(), part.Weights(), exec)
	if err != nil {
		return nil, err
	}
	eval := &engine.Evaluator{
		Model:   m.Clone(),
		Clients: part.Clients,
		Weights: part.Weights(),
		Test:    cfg.Test,
	}
	eng.SetEvaluator(eval)
	return &Runner{eng: eng, eval: eval, devices: devices}, nil
}

type coreError string

func (e coreError) Error() string { return string(e) }

const errNoClients = coreError("core: partition has no clients")

// Engine exposes the underlying engine (for hooks, checkpoint resume, or
// swapping the executor in decorator runtimes like internal/simnet).
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Evaluator exposes the runner's server-side evaluator (loss, accuracy,
// stationarity) for decorator runtimes that measure outside engine.Run —
// internal/simnet stamps its own simulated-clock points with it.
func (r *Runner) Evaluator() *engine.Evaluator { return r.eval }

// Devices exposes the simulated devices (read-only use).
func (r *Runner) Devices() []*Device { return r.devices }

// Config returns the run configuration (with defaults applied).
func (r *Runner) Config() Config { return r.eng.Config() }

// Global returns the current global model (aliased; copy before mutating).
func (r *Runner) Global() []float64 { return r.eng.Global() }

// SetGlobal initializes the global model (e.g. from models.NNModel
// InitParams); default is the zero vector.
func (r *Runner) SetGlobal(w []float64) { r.eng.SetGlobal(w) }

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
func (r *Runner) Run() *metrics.Series {
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
func (r *Runner) RunContext(ctx context.Context) (*metrics.Series, error) {
	return r.eng.Run(ctx)
}

// GlobalLoss returns F̄(w̄) = Σ_n (D_n/D) F_n(w̄) — the objective of
// problem (2) at the current global model.
func (r *Runner) GlobalLoss() float64 {
	return r.eval.Loss(r.eng.Global())
}

// GlobalGradNormSq returns ‖∇F̄(w̄)‖² — the stationarity gap used in (12).
func (r *Runner) GlobalGradNormSq() float64 {
	return r.eval.GradNormSq(r.eng.Global())
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
	d.Solver.Solve(sc, d.Shard, w, r.diag, cfg.Local, r.diagRNG)
	lhs := d.Solver.SurrogateGradNorm(sc, d.Shard, r.diag, w, cfg.Local.Mu)
	rhs := d.Solver.LocalGradNorm(sc, d.Shard, w)
	if rhs == 0 {
		return 0
	}
	return lhs / rhs
}
