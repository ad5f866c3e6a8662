package engine

import "fedproxvr/internal/metrics"

// HeldV0 reports whether an evaluation has ever handed the device a v⁰, so
// the hand-over tests can tell a run that used the mechanism from one that
// never engaged it.
func (d *Device) HeldV0() bool { return d.v0 != nil }

// HandedOver returns the v⁰ the device holds for round t, nil when it holds
// none for that round.
func (d *Device) HandedOver(t int) []float64 {
	if d.v0Round.Load() != int64(t) {
		return nil
	}
	return d.v0
}

// SetBusy marks the device as still solving a cut round, as Parallel does.
func (d *Device) SetBusy(b bool) { d.busy.Store(b) }

// The round-record lifecycle Run owns, reached by the tests that drive
// rounds by hand.

// FlushStats completes the in-flight round record.
func (e *Engine) FlushStats(evalSeconds float64) { e.flushStats(evalSeconds) }

// StampEval stamps a measured point into the in-flight round record.
func (e *Engine) StampEval(p metrics.Point) {
	if e.stats != nil {
		e.rs.Eval = evalStats(p)
	}
}

// GradEvals returns the cumulative gradient evaluations as of the last
// round that reached the devices.
func (e *Engine) GradEvals() int64 { return e.res.GradEvals }

// Stragglers returns how many of the last round's selected devices the
// straggler policy cut.
func (e *Engine) Stragglers() int { return e.res.Stragglers }
