package engine

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
	"fedproxvr/internal/trace"
)

// Device is one simulated user device, as data: its shard, the handle that
// names its model and phase observer, its private RNG stream (which makes
// parallel and sequential schedules bit-identical) and its gradient
// counter. Nothing reachable from a Device is dim- or workspace-sized,
// except a handed-over v⁰: the memory a solve runs in belongs to whoever
// executes it (optim.Scratch, one per executor goroutine) and the buffer it
// reports into to the caller of RunRound, so a population costs O(1) per
// device whatever the model.
//
// The hand-over is the in-process Evaluator's: measuring the global model
// w̄ˢ, it computes ∇F_n(w̄ˢ) for every device in the same pass as the
// device's loss and leaves it here, keyed by round s+1; if the device is
// in that round's cohort, its solve copies it as v⁰ instead of
// recomputing it. The buffer is allocated at the first hand-over, so
// devices of the TCP and tree runtimes, which are never handed one, never
// hold it.
type Device struct {
	ID     int
	Shard  *data.Dataset
	Solver optim.Solver
	RNG    *rand.Rand

	seed  int64 // experiment seed BeginRound re-keys the stream from
	round int   // the round BeginRound last keyed the stream for
	// gradEvals is atomic because a quorum-cut round's solve can still be
	// finishing on a pool worker while the engine reads the counter.
	gradEvals atomic.Int64
	busy      atomic.Bool // still solving a round that was cut (Parallel only)

	// v0 is the handed-over ∇F_n(anchor) and v0Round the round it serves
	// (0: none). v0Round is atomic because the engine drops hand-overs
	// between rounds while a cut round's late solve may still be reading
	// it; v0 itself is written only while the device is not busy.
	v0      []float64
	v0Round atomic.Int64
}

// NewDevice builds a device that trains m. m is only ever cloned from —
// each executing goroutine's scratch holds the clone it evaluates — so all
// devices of a run share it.
func NewDevice(id int, shard *data.Dataset, m models.Model, seed int64) *Device {
	return &Device{
		ID:     id,
		Shard:  shard,
		Solver: optim.NewSolver(m),
		RNG:    randx.NewSeedable(randx.DeriveSeed(seed, int64(id)+101)),
		seed:   seed,
	}
}

// BeginRound re-keys the device's private RNG for global round t. The new
// state is a pure function of (seed, id, round) — no history — so round
// t's minibatch draws are identical whether the earlier rounds ran in this
// process, on a TCP worker, or in a coordinator incarnation that has since
// been SIGKILLed and restarted. This is what upgrades checkpoint resume
// and worker rejoin from "statistically equivalent" to bit-identical.
// Round 0 (no engine-numbered round) leaves the construction-time stream
// untouched for callers that never number rounds (internal/async).
func (d *Device) BeginRound(t int) {
	d.round = t
	if t > 0 {
		d.RNG.Seed(randx.RoundSeed(d.seed, int64(d.ID)+101, int64(t)))
	}
}

// RunRound executes the device's inner loop from the given anchor in the
// caller's scratch and writes its reported local model into out. A solve
// overwrites everything it reads from sc, so the result does not depend on
// which device sc served last. A gradient handed over for the round
// BeginRound keyed is the solve's v⁰; one for any other round is ignored.
func (d *Device) RunRound(sc *optim.Scratch, anchor, out []float64, cfg optim.LocalConfig) {
	var v0 []float64
	if d.round > 0 && d.v0Round.Load() == int64(d.round) {
		v0 = d.v0
	}
	n := d.Solver.Solve(sc, d.Shard, anchor, out, cfg, d.RNG, v0)
	d.gradEvals.Add(int64(n))
}

// dropHandOver forgets the handed-over gradient, whichever round it served.
func (d *Device) dropHandOver() { d.v0Round.Store(0) }

// GradEvals returns the cumulative gradient evaluations of this device.
func (d *Device) GradEvals() int64 { return d.gradEvals.Load() }

// Executor is the one backend-specific step of Algorithm 1: send the
// anchor to the selected devices, collect their local models. RunRound
// fills res.Locals so that res.Locals[i] belongs to spec.Selected[i]; the
// vectors stay valid until the next RunRound.
//
// The contract tolerates partial work, the way FedProx defines the step:
// res.Locals[i] == nil means device spec.Selected[i] did not report this
// round. Of those, res.Stragglers were healthy but cut by the round's
// policy — ctx expiring, or spec.MinReport devices having reported — and
// the rest failed (crashed worker, network fault). The engine folds every
// nil entry out of the cohort before aggregation, exactly as if dropout
// injection had removed it: a per-device failure degrades the round, it
// does not abort the run. A non-nil error is reserved for run-fatal
// conditions (every worker dead, quorum exhausted), and does abort.
//
// Implementations are the backends Sequential and Parallel (in-process;
// never fail a device) and the TCP coordinator (transport.Executor, which
// converts per-worker faults into nil entries), plus the decorators
// chaos.Executor and simnet.TimedExecutor, which hand spec to the executor
// they wrap.
type Executor interface {
	RunRound(ctx context.Context, spec RoundSpec, res *RoundResult) error
}

// RoundSpec is everything the engine tells an executor about one round. It
// is passed by value and never retained past the call; decorators forward
// it untouched (or with a narrowed Selected), so a switch the engine sets
// cannot be lost on the way down a decorator stack.
type RoundSpec struct {
	// Round is the global iteration number (1-based), the only source of
	// round numbering below the engine: devices re-key their RNG streams
	// from it (Device.BeginRound), fault schedules are looked up by it and
	// it is the round number on the wire. A resumed engine (Resume after
	// a checkpoint restore) therefore drives every layer at the true global
	// round. 0 means the caller does not number rounds: streams are left
	// as constructed.
	Round int
	// Anchor is the global model the local solves start from. Read-only;
	// an executor that lets a solve outlive the round snapshots it.
	Anchor []float64
	// Selected lists the devices to run, after the engine's dropout
	// injection. Read-only.
	Selected []int
	// MinReport > 0 cuts the round as soon as that many devices have
	// reported (Config.MinReport). The round deadline (Config.RoundDeadline)
	// travels on ctx.
	MinReport int
	// Stats is the round record under construction, nil when observability
	// is off. Executors append one ClientStat per reporting device and add
	// their backend-specific counters (wire bytes, retries, the simulated
	// clock); with nil they take no timing samples.
	Stats *obs.RoundStats
	// Tracer is the engine's span tracer, nil when tracing is off. Every
	// trace call on a nil tracer is a no-op, so executors use it unguarded.
	Tracer *trace.Tracer
}

// RoundResult is what a round's fan-out reports back. The caller owns it
// and reuses it round over round; RunRound starts by calling Reset.
type RoundResult struct {
	// Locals[i] is the model reported by spec.Selected[i]; nil means that
	// device did not report.
	Locals [][]float64
	// Stragglers counts the nil entries that were policy cuts (deadline or
	// quorum) rather than failures.
	Stragglers int
	// GradEvals is the cumulative gradient-evaluation count across the
	// backend's devices as of this round. Reset leaves it alone, so a
	// round that ran no device keeps the last known total.
	GradEvals int64
	// Devices is set only by an aggregation-tree root, whose Selected are
	// shard connections, and only when spec.Stats is set: the device-level
	// tally rolled up from the shards' partial sums, which the round record
	// reports in place of the per-connection counts.
	Devices *Tally
}

// Tally is a device-level participation count (see RoundResult.Devices).
type Tally struct {
	Participants, Failed, Stragglers int
}

// Reset readies r for a round over n devices and returns r.Locals: n nil
// entries (capacity reused), no stragglers, no tally.
func (r *RoundResult) Reset(n int) [][]float64 {
	if cap(r.Locals) < n {
		r.Locals = make([][]float64, n)
	}
	r.Locals = r.Locals[:n]
	for i := range r.Locals {
		r.Locals[i] = nil
	}
	r.Stragglers, r.Devices = 0, nil
	return r.Locals
}

// reports holds the in-process executors' report buffers, one per device
// that has ever been selected: a round's locals are collected before they
// are aggregated, so cohort × dim is live whoever owns it, and keying the
// buffers by device keeps a reported vector stable until that device's next
// solve (chaos.Executor relies on it across its calls within one round) and
// keeps a late solve from a cut round out of every live buffer.
type reports [][]float64

// of returns device id's buffer, allocating it on first selection.
func (r reports) of(id, dim int) []float64 {
	if r[id] == nil {
		r[id] = make([]float64, dim)
	}
	return r[id]
}

// Sequential runs the selected devices one after another on the calling
// goroutine, in one scratch.
type Sequential struct {
	devices []*Device
	local   optim.LocalConfig
	scratch optim.Scratch
	reports reports
}

var _ Executor = (*Sequential)(nil)

// NewSequential builds the sequential in-process executor.
func NewSequential(devices []*Device, local optim.LocalConfig) *Sequential {
	return &Sequential{devices: devices, local: local, reports: make(reports, len(devices))}
}

// RunRound implements Executor. The sequential schedule cannot preempt a
// running solve, so the policy is checked between devices: once ctx
// expires (or spec.MinReport devices have reported) the remaining devices
// are cut without running — their RNG streams stay untouched, which keeps
// a cut sequential round bit-identical to the same cut on Parallel when
// the schedule decides the cut set (see the chaos conformance tests).
func (s *Sequential) RunRound(ctx context.Context, spec RoundSpec, res *RoundResult) error {
	out := res.Reset(len(spec.Selected))
	reported := 0
	for i, id := range spec.Selected {
		if ctx.Err() != nil || (spec.MinReport > 0 && reported >= spec.MinReport) {
			res.Stragglers++
			continue
		}
		dev := s.devices[id]
		dev.BeginRound(spec.Round)
		out[i] = s.reports.of(id, len(spec.Anchor))
		sp := spec.Tracer.StartClient(id)
		if st := spec.Stats; st != nil {
			t0 := time.Now()
			dev.RunRound(&s.scratch, spec.Anchor, out[i], s.local)
			d := time.Since(t0).Seconds()
			st.Clients = append(st.Clients, obs.ClientStat{ID: id, Seconds: d, SolveSeconds: d})
		} else {
			dev.RunRound(&s.scratch, spec.Anchor, out[i], s.local)
		}
		sp.End()
		reported++
	}
	res.GradEvals = sumEvals(s.devices)
	return nil
}

// parResult is one finished solve under the cut strategy.
type parResult struct {
	i     int
	id    int
	vec   []float64
	solve float64
}

// Parallel fans each round's devices out over the process-wide helper pool
// (tensor.Fan): the calling goroutine solves devices alongside whichever
// helpers are parked, so an executor owns no goroutine and needs no
// stopping. A solve runs in a scratch taken from the executor's idle list
// (built on first need) and put back when it ends, so the executor holds
// one scratch per solve that has ever run at once. An uncuttable round
// allocates nothing (see BenchmarkEngineRoundAllocs): its state lives in
// the executor and the locals buffer is the caller's reused RoundResult.
type Parallel struct {
	devices []*Device
	local   optim.LocalConfig
	reports reports // touched by the dispatching goroutine only

	// The uncuttable round in flight (runAll), read by solveAt.
	fan     tensor.Fan
	solveAt func(slot, i int)
	spec    RoundSpec
	out     [][]float64
	lat     []obs.ClientStat

	mu   sync.Mutex
	idle []*optim.Scratch // scratches no solve is running in

	// abandoned is set once a cut round has returned with solves still
	// running on the pool. From then on a device may be busy at dispatch,
	// and only the cut strategy checks for that.
	abandoned bool
}

var _ Executor = (*Parallel)(nil)

// NewParallel builds the parallel executor.
func NewParallel(devices []*Device, local optim.LocalConfig) *Parallel {
	p := &Parallel{devices: devices, local: local, reports: make(reports, len(devices))}
	p.solveAt = func(_, i int) {
		dev := p.devices[p.spec.Selected[i]]
		d := p.solve(dev, p.spec.Anchor, p.out[i], p.spec.Tracer, p.lat != nil)
		if p.lat != nil {
			p.lat[i] = obs.ClientStat{ID: dev.ID, Seconds: d, SolveSeconds: d}
		}
	}
	return p
}

// solve runs dev's round from anchor into out in an idle scratch and
// returns the solve's seconds when timed (0 otherwise).
func (p *Parallel) solve(dev *Device, anchor, out []float64, tr *trace.Tracer, timed bool) float64 {
	p.mu.Lock()
	var sc *optim.Scratch
	if n := len(p.idle); n > 0 {
		sc, p.idle = p.idle[n-1], p.idle[:n-1]
	} else {
		sc = new(optim.Scratch)
	}
	p.mu.Unlock()
	sp := tr.StartClient(dev.ID)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	dev.RunRound(sc, anchor, out, p.local)
	var d float64
	if timed {
		d = time.Since(t0).Seconds()
	}
	sp.End()
	p.mu.Lock()
	p.idle = append(p.idle, sc)
	p.mu.Unlock()
	return d
}

// RunRound implements Executor with one of two strategies, chosen from
// what the round can observe: a round nothing can cut (no cancellable ctx,
// no quorum) on an executor with no solve left over from an earlier cut
// fans out over the pool with the caller working too, and shares the
// caller's buffers with the helpers; any other round hands each device to
// a helper and collects over a per-round channel, so late solves can be
// abandoned and a device still busy with one is skipped. The second costs
// an anchor snapshot, a channel and a closure per device, which is why the
// first is kept. The executor state matters because a cuttable round can
// be followed by an uncuttable call on the same executor: chaos.Executor
// runs each delayed device in a call of its own with MinReport 0.
// Results are bit-identical to Sequential because every device owns a
// private RNG stream.
func (p *Parallel) RunRound(ctx context.Context, spec RoundSpec, res *RoundResult) error {
	if ctx.Done() == nil && spec.MinReport == 0 && !p.abandoned {
		p.runAll(spec, res)
	} else {
		p.runCut(ctx, spec, res)
	}
	res.GradEvals = sumEvals(p.devices)
	return nil
}

// runAll is the uncuttable round on an executor where no device is busy.
// Devices are re-keyed for the round here, on the dispatching goroutine —
// the fan-out's hand-over publishes the new RNG state to the helpers. The
// solves write their ClientStat straight into the record's tail; the
// fan-out's return is the synchronization point.
func (p *Parallel) runAll(spec RoundSpec, res *RoundResult) {
	n := len(spec.Selected)
	p.out = res.Reset(n)
	p.lat = clientSlots(spec.Stats, n)
	for i, id := range spec.Selected {
		p.devices[id].BeginRound(spec.Round)
		p.out[i] = p.reports.of(id, len(spec.Anchor))
	}
	p.spec = spec
	p.fan.Run(n, n, p.solveAt)
}

// runCut is the round under a deadline or quorum. The engine goroutine
// solves nothing itself: it hands each device to a pool helper
// (tensor.Hand blocks until one is free, which is safe because the engine
// goroutine is never a helper) and collects results from a per-round
// buffered channel, so it can stop at the deadline or quorum while late
// solves finish harmlessly in the background: a late solve's send lands in
// the abandoned round's channel and is dropped with it. A device still
// solving a previously-cut round (busy) is skipped — and counted as a
// straggler — rather than raced on its RNG stream and report buffer. (The
// scratch needs no guard: a late solve keeps the one it took until it
// ends.)
func (p *Parallel) runCut(ctx context.Context, spec RoundSpec, res *RoundResult) {
	// Abandoned solves outlive the round, so the anchor they read must not
	// alias the engine's global vector, which the next aggregation mutates.
	// The snapshot is a fresh slice, not a reused buffer, because a cut
	// round's solves may still be reading the previous round's snapshot.
	anchor := append([]float64(nil), spec.Anchor...)
	n := len(spec.Selected)
	out := res.Reset(n)
	lat := clientSlots(spec.Stats, n)
	done := make(chan parResult, n)
	submitted := 0
	for i, id := range spec.Selected {
		dev := p.devices[id]
		if !dev.busy.CompareAndSwap(false, true) {
			continue // still finishing a cut round's solve
		}
		// Re-key only after winning the CAS: a device still solving a cut
		// round must not have its stream reset underneath the late solve.
		dev.BeginRound(spec.Round)
		buf, tr := p.reports.of(id, len(anchor)), spec.Tracer
		solve := func() {
			d := p.solve(dev, anchor, buf, tr, lat != nil)
			// busy is released before the send so a device whose result
			// loses the race against a cut is immediately schedulable next
			// round.
			dev.busy.Store(false)
			done <- parResult{i: i, id: id, vec: buf, solve: d}
		}
		if !tensor.Hand(ctx.Done(), solve) {
			// Every helper is occupied past the deadline; don't queue more
			// work into a round that is already over.
			dev.busy.Store(false)
			break
		}
		submitted++
	}
	accept := func(r parResult) {
		out[r.i] = r.vec
		if lat != nil {
			lat[r.i] = obs.ClientStat{ID: r.id, Seconds: r.solve, SolveSeconds: r.solve}
		}
	}
	target := submitted
	if spec.MinReport > 0 && spec.MinReport < target {
		target = spec.MinReport
	}
	got := 0
collect:
	for got < target {
		select {
		case r := <-done:
			accept(r)
			got++
		case <-ctx.Done():
			break collect
		}
	}
	// Results that raced the cut and already arrived are real — keep them.
drain:
	for {
		select {
		case r := <-done:
			accept(r)
			got++
		default:
			break drain
		}
	}
	res.Stragglers = n - got
	if got < submitted {
		p.abandoned = true
	}
	if st := spec.Stats; st != nil {
		// Cut devices carry no latency: drop the slots nobody filled.
		st.Clients = compactStats(st.Clients, len(st.Clients)-n)
	}
}

// Close drops the executor's idle scratches (a later round builds them
// again). The executor owns no goroutine, so there is nothing to stop;
// Close exists for callers that release an executor's memory early.
func (p *Parallel) Close() {
	p.mu.Lock()
	p.idle = nil
	p.mu.Unlock()
}

// clientSlots appends n unfilled slots (ID -1) to the record's Clients —
// without reallocating when capacity allows — and returns them for the
// pool to fill by position; nil when stats are off.
func clientSlots(st *obs.RoundStats, n int) []obs.ClientStat {
	if st == nil {
		return nil
	}
	for i := 0; i < n; i++ {
		st.Clients = append(st.Clients, obs.ClientStat{ID: -1})
	}
	return st.Clients[len(st.Clients)-n:]
}

// compactStats drops the unfilled slots from s[from:], keeping order.
func compactStats(s []obs.ClientStat, from int) []obs.ClientStat {
	kept := s[:from]
	for _, c := range s[from:] {
		if c.ID >= 0 {
			kept = append(kept, c)
		}
	}
	return kept
}

func sumEvals(devices []*Device) int64 {
	var total int64
	for _, d := range devices {
		total += d.GradEvals()
	}
	return total
}
