package simnet

import (
	"context"
	"fmt"

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

// Now returns the simulated seconds elapsed so far.
func (x *TimedExecutor) Now() float64 { return x.now }

// Train runs an in-process engine (engine.NewInProcess) against the
// fleet's clock: it swaps a TimedExecutor in for the duration of the run
// and lets eng.Run drive it, so the outer loop — selection, dropout,
// aggregation, measurement, hooks and tracing — is the engine's, and a
// round hook reads the clock after each round. The series holds the
// round-0 point, at time 0, and the points of the rounds this call ran: on
// a resumed engine the clock starts at the resumed round, and the restored
// points after round 0, which another clock timed, are left out.
func Train(eng *engine.Engine, fleet *Fleet) (*TimedSeries, error) {
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
	cfg := eng.Config()
	inner := eng.Executor()
	tx := NewTimedExecutor(inner, fleet, cfg.Local.Tau)
	eng.SetExecutor(tx)
	defer eng.SetExecutor(inner)
	clock := map[int]float64{0: 0}
	unhook := eng.OnRound(func(info engine.RoundInfo) error {
		clock[info.Round] = tx.Now()
		return nil
	})
	defer unhook()
	s, err := eng.Run(context.Background())
	out := &TimedSeries{Name: cfg.Name}
	for _, p := range s.Points {
		if t, ok := clock[p.Round]; ok {
			out.Points = append(out.Points, TimedPoint{Time: t, Point: p})
		}
	}
	return out, err
}
