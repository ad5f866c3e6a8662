// Package search implements the hyperparameter random search the paper uses
// for Tables 1 and 2: "we conduct a random search on carefully chosen ranges
// of hyperparameters to determine which combination of them would yield the
// highest test accuracy with respect to each algorithm."
package search

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
)

// Space is the sampling domain for one algorithm's search. Every slice must
// be non-empty; a trial draws one element from each uniformly.
type Space struct {
	Taus    []int
	Betas   []float64
	Mus     []float64 // use {0} for FedAvg
	Batches []int
}

// Validate reports empty dimensions.
func (s Space) Validate() error {
	if len(s.Taus) == 0 || len(s.Betas) == 0 || len(s.Mus) == 0 || len(s.Batches) == 0 {
		return fmt.Errorf("search: every Space dimension needs at least one value")
	}
	return nil
}

// Trial is one sampled configuration and its outcome.
type Trial struct {
	Algorithm string
	Estimator optim.Estimator
	Tau       int
	Beta      float64
	Mu        float64
	Batch     int
	BestAcc   float64
	BestRound int
}

// Options controls a search run.
type Options struct {
	Estimator optim.Estimator
	Name      string  // table row label, e.g. "FedProxVR (SVRG)"
	L         float64 // smoothness estimate used for η = 1/(βL)
	Rounds    int     // T for each trial
	Trials    int
	EvalEvery int
	Parallel  bool
	Seed      int64
}

// Run executes a random search of opts.Trials sampled configurations and
// returns all trials sorted by descending best accuracy. The global model
// starts at initW (nil → zeros; otherwise one entry per model parameter),
// e.g. a network initialization shared across trials for comparability.
// A trial starts no goroutine of its own: with opts.Parallel its rounds
// fan out over the process-wide helper pool.
func Run(m models.Model, part *data.Partition, test *data.Dataset, space Space, opts Options, initW []float64) ([]Trial, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if opts.Trials < 1 || opts.Rounds < 1 {
		return nil, fmt.Errorf("search: Trials and Rounds must be ≥ 1")
	}
	rng := randx.NewStream(opts.Seed, 7777)
	trials := make([]Trial, 0, opts.Trials)
	seen := map[string]bool{}
	for len(trials) < opts.Trials {
		tr := Trial{
			Algorithm: opts.Name,
			Estimator: opts.Estimator,
			Tau:       space.Taus[rng.Intn(len(space.Taus))],
			Beta:      space.Betas[rng.Intn(len(space.Betas))],
			Mu:        space.Mus[rng.Intn(len(space.Mus))],
			Batch:     space.Batches[rng.Intn(len(space.Batches))],
		}
		key := fmt.Sprintf("%d|%g|%g|%d", tr.Tau, tr.Beta, tr.Mu, tr.Batch)
		if seen[key] {
			// Finite grids: if the space is exhausted, stop early rather
			// than loop forever.
			if len(seen) >= len(space.Taus)*len(space.Betas)*len(space.Mus)*len(space.Batches) {
				break
			}
			continue
		}
		seen[key] = true

		cfg := engine.Config{
			Name: opts.Name,
			Local: optim.LocalConfig{
				Estimator: opts.Estimator,
				Eta:       engine.StepSize(tr.Beta, opts.L),
				Tau:       tr.Tau,
				Batch:     tr.Batch,
				Mu:        tr.Mu,
				Return:    optim.ReturnLast,
			},
			Rounds:    opts.Rounds,
			EvalEvery: opts.EvalEvery,
			Test:      test,
			Parallel:  opts.Parallel,
			Seed:      opts.Seed,
		}
		eng, _, err := engine.NewInProcess(m, part, cfg, initW)
		if err != nil {
			return nil, err
		}
		series, err := eng.Run(context.Background())
		if err != nil {
			return nil, err
		}
		acc, round := series.BestAcc()
		if math.IsNaN(acc) {
			return nil, fmt.Errorf("search: no accuracy recorded (missing test set or non-classifier model)")
		}
		tr.BestAcc = acc
		tr.BestRound = round
		trials = append(trials, tr)
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].BestAcc > trials[j].BestAcc })
	return trials, nil
}

// Best returns the highest-accuracy trial. Panics on empty input.
func Best(trials []Trial) Trial {
	if len(trials) == 0 {
		panic("search: Best of no trials")
	}
	best := trials[0]
	for _, t := range trials[1:] {
		if t.BestAcc > best.BestAcc {
			best = t
		}
	}
	return best
}

// TableRow formats a trial as the paper's Tables 1–2 row:
// Algorithm, τ, β, μ, B, T, Accuracy.
func TableRow(t Trial) []string {
	return []string{
		t.Algorithm,
		fmt.Sprintf("%d", t.Tau),
		fmt.Sprintf("%g", t.Beta),
		fmt.Sprintf("%g", t.Mu),
		fmt.Sprintf("%d", t.Batch),
		fmt.Sprintf("%d", t.BestRound),
		fmt.Sprintf("%.2f%%", t.BestAcc*100),
	}
}

// TableHeaders returns the paper's table column names.
func TableHeaders() []string {
	return []string{"Algorithm", "τ", "β", "μ", "B", "T", "Accuracy"}
}
