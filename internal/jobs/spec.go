package jobs

import (
	"fmt"
	"regexp"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/clisetup"
	"fedproxvr/internal/engine"
)

// Spec is a job submission: the experiment a job trains, durably recorded
// at submit time so a recovering manager rebuilds the identical run. The
// same (Spec, Seed) always reconstructs the same task, devices, and
// round-by-round draws on every coordinator incarnation — the whole basis
// of bit-identical recovery.
type Spec struct {
	// ID names the job (and its state directory). Assigned by Submit when
	// empty; restricted to [a-z0-9][a-z0-9._-]* so it is path- and
	// URL-safe.
	ID string `json:"id,omitempty"`
	// Dataset is synthetic | digits | fashion (default synthetic).
	Dataset string `json:"dataset,omitempty"`
	// Model is softmax | cnn (default softmax; cnn needs an image dataset).
	Model string `json:"model,omitempty"`
	// Alg is fedavg | fedprox | svrg | sarah (default sarah).
	Alg string `json:"alg,omitempty"`
	// Devices is the simulated cohort size (default 3).
	Devices int `json:"devices,omitempty"`
	// Samples is the per-class sample count for image datasets (default 120).
	Samples int `json:"samples,omitempty"`
	// Beta, Mu, Tau, Batch are the algorithm knobs (β step-size parameter,
	// proximal μ, local iterations τ, mini-batch B); defaults 5, 0.1, 20, 16.
	Beta  float64 `json:"beta,omitempty"`
	Mu    float64 `json:"mu,omitempty"`
	Tau   int     `json:"tau,omitempty"`
	Batch int     `json:"batch,omitempty"`
	// Rounds is the number of global iterations T (required, ≥ 1).
	Rounds int `json:"rounds"`
	// Seed drives every random choice of the run (default 2020).
	Seed int64 `json:"seed,omitempty"`
	// ClientFraction samples this fraction of devices per round (default 1).
	ClientFraction float64 `json:"client_fraction,omitempty"`
	// DropoutProb injects per-round report failures (default 0).
	DropoutProb float64 `json:"dropout_prob,omitempty"`
	// MinParticipants is the per-job quorum: a round with fewer reporting
	// devices is skipped (the global model is left unchanged), the same
	// below-quorum semantics transport.FaultPolicy applies on the wire.
	// Default 1 (every non-empty round aggregates).
	MinParticipants int `json:"min_participants,omitempty"`
	// CheckpointEvery fsyncs a checkpoint every k rounds (default 1: every
	// round boundary is durable, the crash-recovery conformance target).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// withDefaults returns the spec with zero-value fields normalized.
func (s Spec) withDefaults() Spec {
	if s.Dataset == "" {
		s.Dataset = "synthetic"
	}
	if s.Model == "" {
		s.Model = "softmax"
	}
	if s.Alg == "" {
		s.Alg = "sarah"
	}
	if s.Devices == 0 {
		s.Devices = 3
	}
	if s.Samples == 0 {
		s.Samples = 120
	}
	if s.Beta == 0 {
		s.Beta = 5
	}
	if s.Mu == 0 {
		s.Mu = 0.1
	}
	if s.Tau == 0 {
		s.Tau = 20
	}
	if s.Batch == 0 {
		s.Batch = 16
	}
	if s.Seed == 0 {
		s.Seed = 2020
	}
	if s.ClientFraction == 0 {
		s.ClientFraction = 1
	}
	if s.MinParticipants == 0 {
		s.MinParticipants = 1
	}
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = 1
	}
	return s
}

// Validate rejects specs the manager cannot run. Called on the defaulted
// spec (Submit normalizes first). It generates no data and builds no
// engine, so a submission costs a few checks under the manager's lock.
// It refuses what building the run would: the dataset and model names and
// the sample count (clisetup.CheckTask, which for an image dataset also
// finds a label the hold-out leaves without a training sample), and the
// algorithm and its numbers (clisetup.Config and engine.Config's
// Validate). One refusal waits for the run: η = 1/(βL) takes the
// smoothness constant L from the data, so a β so large that βL
// overflows (η = 0) fails the job when it first runs.
func (s *Spec) Validate() error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("jobs: id %q must match %s", s.ID, idPattern)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("jobs: rounds must be ≥ 1, got %d", s.Rounds)
	}
	if s.Devices < 1 {
		return fmt.Errorf("jobs: devices must be ≥ 1, got %d", s.Devices)
	}
	if s.MinParticipants < 1 || s.MinParticipants > s.Devices {
		return fmt.Errorf("jobs: min_participants must be in [1,%d], got %d", s.Devices, s.MinParticipants)
	}
	if s.CheckpointEvery < 1 {
		return fmt.Errorf("jobs: checkpoint_every must be ≥ 1, got %d", s.CheckpointEvery)
	}
	if err := clisetup.CheckTask(s.Dataset, s.Model, s.Devices, s.Samples, 1, s.Seed); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	cfg, err := s.config(1)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// config builds the job's engine configuration for a task of smoothness
// constant l.
func (s *Spec) config(l float64) (engine.Config, error) {
	cfg, err := clisetup.Config(s.Alg, s.Beta, l, s.Mu, s.Tau, s.Batch, s.Rounds)
	if err != nil {
		return engine.Config{}, fmt.Errorf("jobs: %w", err)
	}
	cfg.Name = s.ID
	cfg.Seed = s.Seed
	cfg.ClientFraction = s.ClientFraction
	cfg.DropoutProb = s.DropoutProb
	return cfg, nil
}

// runner builds the job's private in-process run: its own task (devices,
// shards, model) and engine, constructed purely from the spec — never
// shared across jobs, so N concurrent jobs interleave without any cross-job
// state, and determinism is per-job regardless of scheduling order.
func (s *Spec) runner() (*fedproxvr.Runner, error) {
	task, err := clisetup.Task(s.Dataset, s.Model, s.Devices, s.Samples, 1, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	cfg, err := s.config(task.L)
	if err != nil {
		return nil, err
	}
	cfg.Test = task.Test
	r, err := fedproxvr.NewRunner(task, cfg)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if s.MinParticipants > 1 {
		eng := r.Engine()
		eng.SetAggregator(&quorumGate{inner: eng.Aggregator(), min: s.MinParticipants})
	}
	return r, nil
}

// quorumGate enforces the per-job quorum: a round whose reporting cohort is
// below min is skipped — the fold never runs and the global model is left
// unchanged — mirroring transport.FaultPolicy.MinParticipants semantics for
// in-process jobs. Skipping consumes the round number, so the schedule of
// the surviving rounds (and their round-keyed draws) is unchanged.
type quorumGate struct {
	inner engine.Aggregator
	min   int
}

func (q *quorumGate) Aggregate(w []float64, selected []int, locals [][]float64) error {
	if len(selected) < q.min {
		return nil
	}
	return q.inner.Aggregate(w, selected, locals)
}
