package chaos

import (
	"context"
	"sort"
	"strconv"
	"time"

	"fedproxvr/internal/engine"
)

// Executor decorates an in-process engine.Executor with fault injection
// driven by a Schedule. Crash and Partition events skip the device for the
// round (nil partial result, device RNG untouched); Flake is a transport
// retry artifact and a no-op in process; Delay holds the device's result
// back by the scheduled duration — which turns into a straggler cut when
// the round has a deadline; Corrupt perturbs the returned update with
// seeded noise. Because faults are decided by (device, round) lookups and
// corruption noise is a pure function of the schedule seed, a chaos run is
// bit-identical across the sequential, parallel, and simnet backends, and
// matches the TCP path driven by the same schedule through chaos workers.
//
// The schedule is evaluated at spec.Round — the engine's global round
// number — so a resumed engine (checkpoint restore) replays it at the true
// round numbers. Everything else in the spec (stats record, tracer, quorum)
// is handed to the wrapped executor untouched.
type Executor struct {
	inner engine.Executor
	sched *Schedule

	sub    engine.RoundResult // the wrapped executor's result in event rounds
	runIDs []int
	runPos []int
}

var _ engine.Executor = (*Executor)(nil)

// NewExecutor wraps inner with the fault schedule.
func NewExecutor(inner engine.Executor, sched *Schedule) *Executor {
	return &Executor{inner: inner, sched: sched}
}

type lateDev struct {
	pos int
	id  int
	d   time.Duration
}

// RunRound implements engine.Executor. The deadline/quorum policy applies
// to the healthy cohort, and scheduled Delay events race their devices
// against the round deadline. In a round with events the wrapped executor
// runs several times — the main fan-out, then each delayed device — and the
// calls merge into one result: every call appends its ClientStats to the
// same spec.Stats, stragglers add up, and the cumulative GradEvals is the
// last call's.
func (x *Executor) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	if !x.sched.RoundHasEvents(spec.Round) {
		return x.inner.RunRound(ctx, spec, res)
	}
	selected, tr := spec.Selected, spec.Tracer
	out := res.Reset(len(selected))

	// Partition the cohort: crashed/partitioned devices stay nil, delayed
	// devices run late one by one, everyone else (including corrupt and
	// flake targets) runs in one main fan-out.
	x.runIDs = x.runIDs[:0]
	x.runPos = x.runPos[:0]
	var late []lateDev
	var corrupt []int
	for i, id := range selected {
		ev, ok := x.sched.ActionFor(id, spec.Round)
		if !ok {
			x.runIDs = append(x.runIDs, id)
			x.runPos = append(x.runPos, i)
			continue
		}
		if tr != nil {
			// Every injected fault is an annotated instant on the round
			// span, so a chaos run's trace shows the schedule firing.
			tr.RoundEvent("chaos:"+string(ev.Kind), "device "+strconv.Itoa(id))
		}
		switch ev.Kind {
		case Crash, Partition:
			// nil slot: the engine counts it as failed, same as a crashed
			// TCP worker.
		case Delay:
			late = append(late, lateDev{pos: i, id: id, d: ev.Delay()})
		case Corrupt:
			corrupt = append(corrupt, i)
			x.runIDs = append(x.runIDs, id)
			x.runPos = append(x.runPos, i)
		default: // Flake: transport-level retry artifact, solves in process
			x.runIDs = append(x.runIDs, id)
			x.runPos = append(x.runPos, i)
		}
	}

	sub := spec
	if len(x.runIDs) > 0 {
		sub.Selected = x.runIDs
		if err := x.inner.RunRound(ctx, sub, &x.sub); err != nil {
			return err
		}
		// Copy result pointers out immediately: x.sub is reused by the late
		// calls below. The vectors themselves are the inner executor's
		// per-device report buffers, stable until that device's next solve.
		for j, pos := range x.runPos {
			out[pos] = x.sub.Locals[j]
		}
		res.Stragglers += x.sub.Stragglers
		res.GradEvals = x.sub.GradEvals
	}

	// Delayed devices report late, in delay order; under a round deadline
	// the ones past the cut become stragglers without touching their RNG.
	sort.Slice(late, func(a, b int) bool {
		if late[a].d != late[b].d {
			return late[a].d < late[b].d
		}
		return late[a].pos < late[b].pos
	})
	sub.MinReport = 0
	var slept time.Duration
	for _, ld := range late {
		cutLate := func() {
			res.Stragglers++
			if tr != nil {
				tr.RoundEvent("straggler-cut", "device "+strconv.Itoa(ld.id)+" (delayed past deadline)")
			}
		}
		if wait := ld.d - slept; wait > 0 {
			if !sleepCtx(ctx, wait) {
				cutLate()
				continue
			}
			slept = ld.d
		}
		if ctx.Err() != nil {
			cutLate()
			continue
		}
		sub.Selected = []int{ld.id}
		if err := x.inner.RunRound(ctx, sub, &x.sub); err != nil {
			return err
		}
		res.GradEvals = x.sub.GradEvals
		if x.sub.Locals[0] == nil {
			res.Stragglers++
			continue
		}
		out[ld.pos] = x.sub.Locals[0]
	}

	for _, pos := range corrupt {
		if out[pos] == nil {
			continue
		}
		ev, _ := x.sched.ActionFor(selected[pos], spec.Round)
		cp := append([]float64(nil), out[pos]...)
		x.sched.CorruptVec(ev, cp)
		out[pos] = cp
	}
	return nil
}

// sleepCtx sleeps for d, returning false if ctx expires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
