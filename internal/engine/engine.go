package engine

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"time"

	"fedproxvr/internal/metrics"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/trace"
)

// RoundInfo is passed to per-round hooks after aggregation and measurement.
type RoundInfo struct {
	// Round is the just-completed global iteration (1-based).
	Round int
	// Participants are the device IDs that reported this round (after
	// dropout injection and executor-reported failures); empty when every
	// selected device dropped. The slice is owned by the hook invocation —
	// it stays valid after the round, so hooks may retain it.
	Participants []int
	// Failed counts the selected devices whose executor run failed this
	// round (locals[i] == nil partial results — e.g. a crashed TCP worker).
	// Devices removed by the engine's own dropout injection do not count.
	Failed int
	// Stragglers counts the selected devices cut from the round by the
	// straggler policy (Config.RoundDeadline / Config.MinReport) — nil
	// results like failures, but the device is healthy, just late. Always
	// zero when the policy is off.
	Stragglers int
	// Global aliases the current global model — copy before mutating.
	Global []float64
	// Series is the series Run is building: the points a Resume restored,
	// then the points Run has appended so far, this round's included if it
	// was an evaluation round.
	Series *metrics.Series
}

// Hook observes completed rounds (checkpointing, time accounting, early
// stopping). Returning an error aborts the run with that error.
type Hook func(RoundInfo) error

// StatsRecorder consumes per-round system accounting (see internal/obs).
// obs.Collector is the standard implementation.
type StatsRecorder interface {
	RecordRound(rs *obs.RoundStats)
}

// Engine drives the outer loop of Algorithm 1: selection → dropout →
// Executor fan-out → Aggregator fold, plus metric measurement and
// per-round hooks. Run is the only outer loop: the in-process,
// simulated-clock, checkpointed, control-plane and TCP runs all drive it,
// through an Executor or a round hook, so Run alone completes each round's
// record, owns the run's history and measures.
type Engine struct {
	cfg     Config
	exec    Executor
	agg     Aggregator
	weights []float64
	server  *rand.Rand
	w       []float64
	selBuf  []int
	eval    *Evaluator
	round   int
	resumed []metrics.Point // Resume's points, which the next Run extends

	hooks      []hookEntry
	liveHooks  int
	nextHookID int

	stats StatsRecorder
	rs    obs.RoundStats // in-flight round record (reused; see flushStats)
	res   RoundResult    // the last fan-out's result (reused; see Executor)

	tracer    *trace.Tracer
	roundSpan trace.Span // in-flight round span, closed by flushStats
	roundOpen bool

	policy bool // RoundDeadline or MinReport is set (precomputed)
}

// hookEntry pairs a hook with a stable ID so unregistering survives slot
// compaction (see compactHooks).
type hookEntry struct {
	id int
	h  Hook
}

type engineError string

func (e engineError) Error() string { return string(e) }

// ErrNoClients is returned when the run has an empty cohort.
const ErrNoClients = engineError("engine: no clients")

// New validates cfg, applies defaults, and builds an engine over dim-sized
// models for a cohort whose data shares are weights (summing to 1). The
// aggregator is chosen from cfg (weighted mean, DP, or secure); override it
// with SetAggregator before running.
func New(cfg Config, dim int, weights []float64, exec Executor) (*Engine, error) {
	// Defaults are applied before validation so the zero value of an unset
	// Config (ClientFraction 0 → full participation) keeps working while
	// Validate rejects an explicit 0 from callers that validate directly.
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(weights) == 0 {
		return nil, ErrNoClients
	}
	e := &Engine{
		cfg:     cfg,
		exec:    exec,
		weights: weights,
		server:  randx.NewSeedable(randx.DeriveSeed(cfg.Seed, 1)),
		w:       make([]float64, dim),
		policy:  cfg.RoundDeadline > 0 || cfg.MinReport > 0,
	}
	switch {
	case cfg.SecureAgg:
		e.agg = NewSecureMean(weights, dim, cfg.Seed, cfg.SecureMaskScale)
	case cfg.DPClip > 0:
		e.agg = NewDPMean(weights, dim, cfg.DPClip, cfg.DPNoise, e.server)
	default:
		e.agg = NewWeightedMean(weights, dim)
	}
	return e, nil
}

// Config returns the run configuration with defaults applied.
func (e *Engine) Config() Config { return e.cfg }

// Global returns the current global model (aliased; copy before mutating).
func (e *Engine) Global() []float64 { return e.w }

// SetGlobal initializes the global model (default: the zero vector). It
// drops every gradient an evaluation handed over: those were taken at the
// model it replaces.
func (e *Engine) SetGlobal(w []float64) {
	copy(e.w, w)
	e.dropHandOvers()
}

// Resume fast-forwards the round counter to t (checkpoint resume) and
// hands the engine points, the series recorded up to round t: the next
// Run's series starts with them, so it holds the whole run. The engine
// takes ownership of points. No RNG replay is needed: every stream — the
// server stream and each device's — is re-keyed at the top of each round
// from a pure (seed, stream, round) hash (randx.RoundSeed), so a resumed
// run's remaining rounds are bit-identical to the same rounds of an
// uninterrupted run. This is the property the crash-recovering job
// control plane (internal/jobs) builds on: a coordinator restart at round
// t is indistinguishable from having never died, and a mid-round kill is
// exactly a full-cohort dropout of the round that never committed. Like
// SetGlobal it drops every handed-over gradient.
func (e *Engine) Resume(t int, points []metrics.Point) {
	e.round = t
	e.resumed = points
	e.dropHandOvers()
}

// dropHandOvers forgets the v⁰ the evaluator's devices were handed, so a
// round replayed or re-anchored after Resume/SetGlobal computes its own.
func (e *Engine) dropHandOvers() {
	if e.eval == nil {
		return
	}
	for _, d := range e.eval.Devices {
		d.dropHandOver()
	}
}

// Executor returns the current backend.
func (e *Engine) Executor() Executor { return e.exec }

// SetExecutor swaps the backend (e.g. wrapping it in a simulated-clock
// decorator). Safe between rounds, not during one. The stats and tracer
// switches travel in each round's RoundSpec, so the new backend sees them
// whatever order it and they were installed in.
func (e *Engine) SetExecutor(x Executor) { e.exec = x }

// Aggregator returns the current aggregation rule.
func (e *Engine) Aggregator() Aggregator { return e.agg }

// SetAggregator overrides the config-derived aggregation rule.
func (e *Engine) SetAggregator(a Aggregator) { e.agg = a }

// SetEvaluator installs server-side measurement (loss, accuracy,
// stationarity). Without one, measured points carry only round numbers and
// gradient-eval counts. The evaluator it replaces has its hand-overs
// dropped.
func (e *Engine) SetEvaluator(ev *Evaluator) {
	e.dropHandOvers()
	e.eval = ev
}

// Evaluator returns the installed evaluator (nil without one).
func (e *Engine) Evaluator() *Evaluator { return e.eval }

// SetStats installs a per-round stats recorder (see internal/obs); nil
// disables collection. With a recorder installed, Step samples wall-clock
// phase timings and hands the executor the round record to fill with
// per-client latencies (RoundSpec.Stats); without one the engine takes no
// timing samples and allocates nothing extra per round. Safe between
// rounds, not during one.
func (e *Engine) SetStats(rec StatsRecorder) { e.stats = rec }

// SetTracer installs a span tracer (see internal/trace); nil disables
// tracing. With one installed, Step opens a round span with phase children
// and executors record their own spans against it (RoundSpec.Tracer);
// without one every trace call is a nil-receiver no-op, so the tracing-off
// path keeps the engine's alloc budget. Safe between rounds, not during one.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// endRoundSpan closes the in-flight round span. It runs inside flushStats
// — which Run calls exactly once per round, after evaluation — so the
// round span covers selection through measurement.
func (e *Engine) endRoundSpan() {
	if e.roundOpen {
		e.roundSpan.End()
		e.roundOpen = false
	}
}

// flushStats finalizes the in-flight round record — the cumulative
// gradient-evaluation count and the evaluation-phase duration — and
// hands it to the recorder. Run calls it once per round. No-op without a
// recorder (the round span, when tracing, still closes).
func (e *Engine) flushStats(evalSeconds float64) {
	e.endRoundSpan()
	if e.stats == nil {
		return
	}
	e.rs.EvalSeconds = evalSeconds
	e.rs.GradEvals = e.res.GradEvals
	e.stats.RecordRound(&e.rs)
}

// OnRound registers a hook called after every completed round, in
// registration order. The returned function unregisters it (for callers
// like internal/checkpoint that borrow an engine for one run); it is
// idempotent and stays valid across hook-slot compaction.
func (e *Engine) OnRound(h Hook) func() {
	e.nextHookID++
	id := e.nextHookID
	e.hooks = append(e.hooks, hookEntry{id: id, h: h})
	e.liveHooks++
	return func() {
		for i := range e.hooks {
			if e.hooks[i].id == id {
				if e.hooks[i].h != nil {
					e.hooks[i].h = nil
					e.liveHooks--
				}
				return
			}
		}
	}
}

// compactHooks drops unregistered hook slots. It runs only at round
// boundaries — never during hook iteration, where removing slots would
// skip or repeat entries — so Run's liveHooks>0 fast path (and its
// Participants copy) stays dead once every hook is gone.
func (e *Engine) compactHooks() {
	if e.liveHooks == len(e.hooks) {
		return
	}
	live := e.hooks[:0]
	for _, he := range e.hooks {
		if he.h != nil {
			live = append(live, he)
		}
	}
	e.hooks = live
}

// Step performs one global iteration: broadcast, local solve on the
// selected devices, weighted aggregation. It returns the participating
// device IDs (after failure injection and executor-reported failures) and
// the number of selected devices whose run failed; if every device drops
// out the global model is left unchanged. The returned slice aliases an
// engine buffer and is only valid until the next Step. Step neither
// measures nor completes the round record: Run does both.
func (e *Engine) Step() ([]int, int, error) {
	return e.step(context.Background())
}

// step is Step under a caller context. With the straggler policy
// configured (RoundDeadline/MinReport), the fan-out runs under a
// deadline-bearing context and late devices come back as stragglers; the
// failed count it returns includes stragglers (every nil result), with
// the split in e.res.Stragglers.
func (e *Engine) step(ctx context.Context) ([]int, int, error) {
	// Observability is strictly opt-in: with no recorder installed the
	// round takes no timing samples and allocates nothing extra (the
	// BenchmarkEngineRoundAllocs guarantee). Tracing is independently
	// opt-in: every call below on a nil tracer is a no-op (one pointer
	// check, no allocation), which preserves the same budget.
	stats := e.stats != nil
	traced := e.tracer != nil
	var t0 time.Time
	if stats {
		e.rs.Reset()
		t0 = time.Now()
	}
	e.round++
	if traced {
		e.endRoundSpan() // a Step-driven round leaves one open
		e.roundSpan = e.tracer.StartRound(e.round)
		e.roundOpen = true
	}
	phase := e.tracer.StartPhase("select")
	selected, nsel := e.cohort(e.round)
	phase.End()
	if stats {
		now := time.Now()
		e.rs.Round = e.round
		e.rs.SelectSeconds = now.Sub(t0).Seconds()
		e.rs.Dropouts = nsel - len(selected)
		t0 = now
	}
	if traced && nsel > len(selected) {
		e.tracer.RoundEvent("dropout", strconv.Itoa(nsel-len(selected))+" devices")
	}
	e.res.Reset(0) // nobody asked yet: a round that stops here has no stragglers
	if len(selected) == 0 {
		return selected, 0, nil
	}
	spec := RoundSpec{Round: e.round, Anchor: e.w, Selected: selected, MinReport: e.cfg.MinReport, Tracer: e.tracer}
	if stats {
		spec.Stats = &e.rs
	}
	phase = e.tracer.StartPhase("execute")
	err := e.fanOut(ctx, spec)
	phase.End()
	if err != nil {
		if stats {
			// Keep the phase timings taken so far: the aborted round's
			// partial record is flushed by Run before it returns.
			e.rs.ExecSeconds = time.Since(t0).Seconds()
		}
		if traced {
			e.tracer.RoundEvent("round-abort", err.Error())
		}
		return nil, 0, err
	}
	if stats {
		now := time.Now()
		e.rs.ExecSeconds = now.Sub(t0).Seconds()
		t0 = now
	}
	// Fold executor-reported failures (locals[i] == nil ⇒ selected[i]
	// failed) out of the cohort: the round aggregates the survivors, the
	// same way dropout injection does. Both slices are round-owned, so the
	// in-place compaction is safe.
	locals := e.res.Locals
	k := 0
	for i, l := range locals {
		if l == nil {
			continue
		}
		selected[k], locals[k] = selected[i], l
		k++
	}
	failed := len(selected) - k
	selected, locals = selected[:k], locals[:k]
	if e.res.Stragglers > failed {
		e.res.Stragglers = failed
	}
	stragglers := e.res.Stragglers
	if stats {
		if d := e.res.Devices; d != nil {
			e.rs.Participants, e.rs.Failed, e.rs.Stragglers = d.Participants, d.Failed, d.Stragglers
		} else {
			e.rs.Participants, e.rs.Failed, e.rs.Stragglers = k, failed-stragglers, stragglers
		}
	}
	if traced {
		if stragglers > 0 {
			e.tracer.RoundEvent("straggler-cut", strconv.Itoa(stragglers)+" devices")
		}
		if n := failed - stragglers; n > 0 {
			e.tracer.RoundEvent("client-failures", strconv.Itoa(n)+" devices")
		}
	}
	if k == 0 {
		return selected, failed, nil
	}
	phase = e.tracer.StartPhase("aggregate")
	err = e.agg.Aggregate(e.w, selected, locals)
	phase.End()
	if stats {
		// Stamped on the error path too: the aborted round's partial record
		// (flushed by Run) shows how long the failing aggregation took.
		e.rs.AggSeconds = time.Since(t0).Seconds()
	}
	if err != nil {
		return nil, failed, err
	}
	return selected, failed, nil
}

// cohort draws round t's cohort into the selection buffer: the selected
// devices, then the survivors of dropout injection, and nsel, the
// selection's size before dropout. It first re-keys the server stream for
// the round — the executor re-keys its devices' streams from the same
// number (RoundSpec.Round) — so the cohort is a pure function of (seed,
// t): no draw made before, in this process or a previous coordinator
// incarnation, influences it, which is what makes checkpoint resume
// bit-identical. The stream is left where the round's later draws (DP
// noise) continue.
func (e *Engine) cohort(t int) (selected []int, nsel int) {
	e.server.Seed(randx.RoundSeed(e.cfg.Seed, 1, int64(t)))
	if e.cfg.ActivateProb > 0 {
		e.selBuf = ActivatedClients(e.cfg.Seed, t, len(e.weights), e.cfg.ActivateProb, e.selBuf)
	} else {
		e.selBuf = SelectClients(e.server, len(e.weights), e.cfg.ClientFraction, e.selBuf)
	}
	return Dropout(e.server, e.selBuf, e.cfg.DropoutProb), len(e.selBuf)
}

// fanOut runs the executor for the round. Without a straggler policy the
// executor gets context.Background(): nothing can cut the round (a caller's
// cancellation takes effect between rounds), which is what lets Parallel
// keep its allocation-free strategy. With one, ctx is bounded by
// RoundDeadline when set; the quorum already travels in spec.
func (e *Engine) fanOut(ctx context.Context, spec RoundSpec) error {
	if !e.policy {
		ctx = context.Background()
	} else if e.cfg.RoundDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.RoundDeadline)
		defer cancel()
	}
	return e.exec.RunRound(ctx, spec, &e.res)
}

// Run executes the remaining global iterations (Rounds minus completed),
// measuring every EvalEvery rounds and at the end, and returns the
// recorded series, which starts with the points of a preceding Resume.
// The round-0 point is included when starting fresh so plots begin at the
// common initialization. ctx cancels between rounds: Run returns the
// series so far plus ctx.Err(), with the global model left at the last
// completed round (resumable — see internal/checkpoint).
func (e *Engine) Run(ctx context.Context) (*metrics.Series, error) {
	runName := e.cfg.Name
	if runName == "" {
		runName = "run"
	}
	runSpan := e.tracer.StartRun(runName)
	defer runSpan.End()
	s := &metrics.Series{Name: e.cfg.Name, Points: e.resumed}
	e.resumed = nil
	if e.round == 0 {
		phase := e.tracer.StartPhase("evaluate")
		p := e.measure(0)
		phase.End()
		s.Append(p)
	}
	for e.round < e.cfg.Rounds {
		if err := ctx.Err(); err != nil {
			return s, err
		}
		e.compactHooks()
		sel, failed, err := e.step(ctx)
		if err != nil {
			// Flush the aborted round's partial record (round number,
			// selection and exec timings so far) so a JSONL trace shows the
			// round that died, not just the rounds before it.
			e.flushStats(0)
			return s, err
		}
		t := e.round
		var evalSec float64
		if t%e.cfg.EvalEvery == 0 || t == e.cfg.Rounds {
			var t0 time.Time
			if e.stats != nil {
				t0 = time.Now()
			}
			phase := e.tracer.StartPhase("evaluate")
			p := e.measure(t)
			phase.End()
			p.Participants, p.Failed = len(sel), failed-e.res.Stragglers
			if e.stats != nil {
				evalSec = time.Since(t0).Seconds()
				// Convergence rides in the round record, so sinks — and the
				// telemetry store built on them — see it with the accounting.
				e.rs.Eval = &obs.EvalStats{TrainLoss: p.TrainLoss, TestAcc: p.TestAcc, GradNormSq: p.GradNormSq}
			}
			s.Append(p)
		}
		e.flushStats(evalSec)
		if e.liveHooks > 0 {
			// Hooks get a stable copy: sel aliases the engine's selection
			// buffer, which the next round overwrites in place.
			info := RoundInfo{Round: t, Participants: append([]int(nil), sel...),
				Failed: failed - e.res.Stragglers, Stragglers: e.res.Stragglers, Global: e.w, Series: s}
			for _, he := range e.hooks {
				if he.h == nil {
					continue
				}
				if err := he.h(info); err != nil {
					return s, err
				}
			}
		}
	}
	return s, nil
}

// measure evaluates the configured metrics at the current global model,
// the anchor of the next round: the evaluator hands every device its v⁰
// for that round from the same pass (Evaluator.Measure). Without an
// evaluator the point carries no loss, accuracy or gap.
func (e *Engine) measure(round int) metrics.Point {
	p := metrics.Point{TestAcc: math.NaN(), GradNormSq: math.NaN()}
	if e.eval != nil {
		p = e.eval.Measure(e.w, round+1)
	}
	p.Round, p.GradEvals = round, e.res.GradEvals
	return p
}

// SelectClients draws the round's cohort: all n devices when fraction ≥ 1
// (reusing buf), otherwise ⌈fraction·n⌉ distinct uniform indices. The
// draw order is fixed so seeds reproduce.
func SelectClients(rng *rand.Rand, n int, fraction float64, buf []int) []int {
	if fraction >= 1 {
		if cap(buf) < n {
			buf = make([]int, n)
		}
		buf = buf[:n]
		for i := range buf {
			buf[i] = i
		}
		return buf
	}
	k := int(math.Ceil(fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	return randx.ChoiceWithout(rng, n, k)
}

// Activated reports whether device id joins round `round` under
// probabilistic activation with probability p. The decision is a pure
// function of (seed, round, id) — no RNG stream is consumed — so the root
// coordinator and every aggregation-tree shard compute the identical cohort
// independently. p ≥ 1 activates everyone.
func Activated(seed int64, round, id int, p float64) bool {
	if p >= 1 {
		return true
	}
	return randx.ActivationUniform(seed, round, id) < p
}

// ActivatedClients fills buf (reused) with the ascending device IDs in
// [0, n) that activate this round with probability p each. Unlike
// SelectClients' uniform-k sampling, the cohort size is itself random —
// Binomial(n, p) — matching the probabilistically activated agents of
// Rostami & Kia (arXiv:2210.14362).
func ActivatedClients(seed int64, round, n int, p float64, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:0]
	for id := 0; id < n; id++ {
		if Activated(seed, round, id, p) {
			buf = append(buf, id)
		}
	}
	return buf
}

// Dropped draws one report-failure event from the server stream.
func Dropped(rng *rand.Rand, prob float64) bool {
	return prob > 0 && rng.Float64() < prob
}

// Dropout filters selected in place to the devices that survive failure
// injection (one draw per selected device, in order).
func Dropout(rng *rand.Rand, selected []int, prob float64) []int {
	if prob <= 0 {
		return selected
	}
	survivors := selected[:0]
	for _, id := range selected {
		if !Dropped(rng, prob) {
			survivors = append(survivors, id)
		}
	}
	return survivors
}
