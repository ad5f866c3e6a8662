package simnet

import (
	"context"
	"fmt"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
)

// TimedPoint couples a metric point with its simulated wall-clock time.
type TimedPoint struct {
	Time float64 // seconds of simulated training time up to this round
	metrics.Point
}

// TimedSeries is a time-stamped training trajectory.
type TimedSeries struct {
	Name   string
	Points []TimedPoint
}

// TimeToLoss returns the simulated time at which the training loss first
// reaches target, or -1 if never.
func (s *TimedSeries) TimeToLoss(target float64) float64 {
	for _, p := range s.Points {
		if p.TrainLoss <= target {
			return p.Time
		}
	}
	return -1
}

// TimedExecutor decorates an engine.Executor with the fleet's clock: every
// round charges the straggler-aware synchronous round time
// 𝒯_round = max over participants of (downlink + τ·compute + uplink) —
// the paper's training-time model (19). The models it returns are
// bit-identical to the inner executor's; only the clock is added.
type TimedExecutor struct {
	inner engine.Executor
	fleet *Fleet
	tau   int
	now   float64
	part  []int // reporting subset scratch (partial-result rounds)
}

var _ engine.Executor = (*TimedExecutor)(nil)

// NewTimedExecutor wraps inner with fleet timing for τ local iterations
// per round.
func NewTimedExecutor(inner engine.Executor, fleet *Fleet, tau int) *TimedExecutor {
	return &TimedExecutor{inner: inner, fleet: fleet, tau: tau}
}

// RunRound implements engine.Executor: the inner executor runs the round
// from the untouched spec and the clock is charged afterwards. Only devices
// that actually reported are charged — a device that failed mid-round or
// was cut as a straggler contributes no completed compute + uplink to the
// straggler max. With stats on, the round record carries the simulated
// clock after this round.
func (x *TimedExecutor) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	if err := x.inner.RunRound(ctx, spec, res); err != nil {
		return err
	}
	x.part = x.part[:0]
	for i, l := range res.Locals {
		if l != nil {
			x.part = append(x.part, spec.Selected[i])
		}
	}
	x.now += x.fleet.RoundTime(x.part, x.tau)
	if spec.Stats != nil {
		spec.Stats.SimSeconds = x.now
	}
	return nil
}

// Inner returns the wrapped executor.
func (x *TimedExecutor) Inner() engine.Executor { return x.inner }

// Now returns the simulated seconds elapsed so far.
func (x *TimedExecutor) Now() float64 { return x.now }

// Train runs an in-process engine (engine.NewInProcess) against the
// fleet's clock by swapping a TimedExecutor into it for the duration of
// the run, so the outer loop (selection, dropout, aggregation) stays the
// engine's.
func Train(eng *engine.Engine, fleet *Fleet, measureEvery int) (*TimedSeries, error) {
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	ev := eng.Evaluator()
	if ev == nil {
		return nil, fmt.Errorf("simnet: engine has no evaluator")
	}
	if len(fleet.Profiles) < len(ev.Clients) {
		return nil, fmt.Errorf("simnet: fleet has %d profiles for %d devices",
			len(fleet.Profiles), len(ev.Clients))
	}
	if measureEvery < 1 {
		measureEvery = 1
	}
	cfg := eng.Config()
	tx := NewTimedExecutor(eng.Executor(), fleet, cfg.Local.Tau)
	eng.SetExecutor(tx)
	defer eng.SetExecutor(tx.Inner())
	out := &TimedSeries{Name: cfg.Name}
	// Measurement is the engine's Evaluator.Measure, exactly like
	// engine.Run's, stamped with the simulated clock.
	measure := func(round, participants, failed int) {
		p := ev.Measure(eng.Global(), cfg.TrackStationarity)
		p.Round, p.GradEvals = round, eng.GradEvals()
		p.Participants, p.Failed = participants, failed
		if round > 0 {
			// Stamp convergence metrics into the in-flight round record so
			// stats sinks (and the telemetry store) see them; round 0 has no
			// in-flight round.
			eng.StampEval(p)
		}
		out.Points = append(out.Points, TimedPoint{Time: tx.Now(), Point: p})
	}
	measure(0, 0, 0)
	for t := 1; t <= cfg.Rounds; t++ {
		sel, failed, err := eng.Step()
		if err != nil {
			// Flush the partial in-flight round record so the trace shows
			// how far the failing round got before aborting.
			eng.FlushStats(0)
			return out, err
		}
		var evalSec float64
		if t%measureEvery == 0 || t == cfg.Rounds {
			t0 := time.Now()
			measure(t, len(sel), failed)
			evalSec = time.Since(t0).Seconds()
		}
		eng.FlushStats(evalSec)
	}
	return out, nil
}
