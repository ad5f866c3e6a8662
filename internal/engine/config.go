// Package engine owns the server side of Algorithm 1's outer loop — once,
// for every runtime. A round is: select the participating cohort, inject
// report failures, fan the anchor out to an Executor (sequential, pooled
// parallel goroutines, a simulated-clock fleet, or TCP workers), and fold
// the returned local models through an Aggregator (the weighted mean by
// default; DP clip+noise, a tree root's partial sums or any other rule is
// installed with SetAggregator). Selection, dropout, aggregation and
// metric measurement live only here; the in-process executors
// (NewInProcess), internal/simnet and internal/transport are Executors
// plugged into this loop, which is what makes their outputs
// bit-identical by construction (every device owns a private RNG stream,
// and every server-side draw comes from one stream consumed in a fixed
// order).
package engine

import (
	"fmt"
	"time"

	"fedproxvr/internal/data"
	"fedproxvr/internal/optim"
)

// Config describes one federated training run.
type Config struct {
	// Name labels the output series (e.g. "FedProxVR (SARAH)").
	Name string
	// Local is the device-side inner-loop configuration (estimator, η, τ,
	// batch, μ).
	Local optim.LocalConfig
	// Rounds is the number of global iterations T.
	Rounds int
	// EvalEvery computes metrics every k rounds (default 1). Metrics are
	// also always computed at the final round.
	EvalEvery int
	// Test, if non-nil, is the held-out set used for accuracy.
	Test *data.Dataset
	// Parallel fans the devices of each round out over the process-wide
	// helper pool, up to GOMAXPROCS solves at once. Results are identical to
	// the sequential schedule because every device owns an independent RNG
	// stream.
	Parallel bool
	// ClientFraction samples this fraction of devices per round (default 1,
	// as in the paper, where all devices participate). An explicit 0 is a
	// configuration error — it would select no devices — and is rejected by
	// Validate; the zero value of an unset Config still defaults to 1
	// because New normalizes defaults before validating.
	ClientFraction float64
	// ActivateProb, when positive, switches selection to probabilistic
	// per-device activation (Rostami & Kia, arXiv:2210.14362): each device
	// independently joins the round with this probability, drawn from a
	// counter-based hash of (Seed, round, device) rather than the server RNG
	// stream. The draw is computable by any node that knows the seed and the
	// round number, which is what lets aggregation-tree shards evaluate
	// their own activation sets without coordination. Mutually exclusive
	// with ClientFraction sampling (< 1). 0 disables.
	ActivateProb float64
	// DropoutProb is the probability that a participating device fails to
	// report its round (battery, network loss). The server aggregates over
	// the survivors, reweighting by their data sizes; if every device
	// drops, the global model is unchanged that round. 0 disables failure
	// injection.
	DropoutProb float64
	// RoundDeadline, when positive, bounds each round's executor fan-out:
	// devices that have not reported when it fires are cut from the round
	// and counted as stragglers (obs.RoundStats.Stragglers), distinct from
	// failures. The paper's §4.3 time model T·(d_com + d_cmp·τ) makes the
	// slowest participant set d_cmp for the cohort; a deadline caps that
	// tail. 0 (the default) waits for every device, exactly as before.
	RoundDeadline time.Duration
	// MinReport, when positive, is the quorum K: the round is cut as soon
	// as K selected devices have reported, the rest counted as stragglers.
	// The aggregator reweights the reporters by their data shares, so a
	// quorum-cut round stays a valid Algorithm 1 step over the reporting
	// subset (the same partial-participation fold as dropout). 0 disables.
	MinReport int
	// Seed drives every random choice in the run.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Local.Validate(); err != nil {
		return err
	}
	if c.Rounds < 1 {
		return fmt.Errorf("engine: Rounds must be ≥ 1, got %d", c.Rounds)
	}
	if c.EvalEvery < 0 {
		return fmt.Errorf("engine: EvalEvery must be ≥ 0, got %d", c.EvalEvery)
	}
	if c.ClientFraction == 0 {
		return fmt.Errorf("engine: ClientFraction 0 would select no devices every round; leave it unset to default to full participation, or pass a value in (0,1]")
	}
	// Inverted comparisons throughout so NaN is rejected too.
	if !(c.ClientFraction > 0 && c.ClientFraction <= 1) {
		return fmt.Errorf("engine: ClientFraction must be in (0,1], got %v", c.ClientFraction)
	}
	if !(c.ActivateProb >= 0 && c.ActivateProb <= 1) {
		return fmt.Errorf("engine: ActivateProb must be in [0,1], got %v", c.ActivateProb)
	}
	if c.ActivateProb > 0 && c.ClientFraction < 1 {
		return fmt.Errorf("engine: ActivateProb and ClientFraction sampling are mutually exclusive selection modes; use one or the other")
	}
	if !(c.DropoutProb >= 0 && c.DropoutProb < 1) {
		return fmt.Errorf("engine: DropoutProb must be in [0,1), got %v", c.DropoutProb)
	}
	if c.RoundDeadline < 0 {
		return fmt.Errorf("engine: RoundDeadline must be non-negative, got %v", c.RoundDeadline)
	}
	if c.MinReport < 0 {
		return fmt.Errorf("engine: MinReport must be non-negative, got %d", c.MinReport)
	}
	return nil
}

// withDefaults returns the config with zero-value fields normalized.
func (c Config) withDefaults() Config {
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	if c.ClientFraction == 0 {
		c.ClientFraction = 1
	}
	return c
}

// StepSize returns η = 1/(βL) — the paper's parametrized step size.
func StepSize(beta, l float64) float64 {
	if beta <= 0 || l <= 0 {
		panic("engine: beta and L must be positive")
	}
	return 1 / (beta * l)
}

// FedAvg returns the configuration of the SGD baseline of McMahan et al.:
// τ local SGD steps with step size η = 1/(βL), no proximal term.
func FedAvg(beta, l float64, tau, batch, rounds int) Config {
	return Config{
		Name: "FedAvg",
		Local: optim.LocalConfig{
			Estimator: optim.SGD,
			Eta:       StepSize(beta, l),
			Tau:       tau,
			Batch:     batch,
			Mu:        0,
			Return:    optim.ReturnLast,
		},
		Rounds: rounds,
	}
}

// FedProx returns the configuration of Li et al.'s FedProx baseline:
// SGD local steps on the μ-proximal surrogate.
func FedProx(beta, l, mu float64, tau, batch, rounds int) Config {
	c := FedAvg(beta, l, tau, batch, rounds)
	c.Name = "FedProx"
	c.Local.Mu = mu
	return c
}

// FedProxVR returns the paper's algorithm: proximal SVRG or SARAH local
// steps with η = 1/(βL) and penalty μ.
func FedProxVR(est optim.Estimator, beta, l, mu float64, tau, batch, rounds int) Config {
	return Config{
		Name: fmt.Sprintf("FedProxVR (%v)", est),
		Local: optim.LocalConfig{
			Estimator: est,
			Eta:       StepSize(beta, l),
			Tau:       tau,
			Batch:     batch,
			Mu:        mu,
			Return:    optim.ReturnLast,
		},
		Rounds: rounds,
	}
}
