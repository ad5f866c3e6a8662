// Package telemetry is the convergence-observability layer on top of
// internal/obs: a per-job, round-indexed ring-buffer time-series store fed
// from the engine's stats path on every backend (sequential, parallel,
// simnet timed, TCP), a declarative rules engine that turns the series
// into divergence/stall alerts (quorum and straggler streaks of 3 rounds;
// the nan_inf check always on), and a live HTTP surface — range-queryable
// JSON series and event endpoints, a text/event-stream feed, and a
// zero-dependency embedded dashboard.
//
// The store ingests each round's obs.RoundStats (system accounting plus
// the stamped EvalStats convergence slice) and, when a Probe wraps the
// engine's aggregator, the per-round client-drift diagnostics the paper's
// μ term fights: ‖w_n − w‖ statistics and the empirical across-client
// variance of the local updates. Everything is bounded memory — a fixed
// ring of samples per job, a fixed ring of 256 events, log-bucketed latency
// histograms — and everything is strictly opt-in: an engine without a
// telemetry sink runs the identical zero-allocation round loop
// (BenchmarkEngineRunRoundAllocs), and attaching telemetry never touches
// an RNG stream or the model, so training is bit-identical with it on or
// off.
package telemetry

import (
	"sync"
	"time"
)

// Options tunes a Hub and the stores it creates.
type Options struct {
	// Rounds is the per-job sample-ring capacity (default 512): the live
	// window the API and dashboard can query. Older rounds fall off the
	// ring (full history belongs to the offline JSONL trace).
	Rounds int
	// Rules is the default alert rule configuration for new job stores.
	Rules RuleConfig
	// StaleAfter marks a job's health degraded when no round has been
	// ingested for this long — the per-job mirror of the global
	// -health-stale-after probe. 0 disables.
	StaleAfter time.Duration

	// nowFn overrides the clock in tests; nil means time.Now.
	nowFn func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 512
	}
	o.Rules = o.Rules.withDefaults()
	return o
}

// Hub owns the per-job stores: the single registry the HTTP API, the
// dashboard, the Prometheus writer, and the jobs control plane share.
type Hub struct {
	mu    sync.Mutex
	opt   Options
	jobs  map[string]*JobStore
	order []string
}

// NewHub builds a hub with the given defaults.
func NewHub(opt Options) *Hub {
	return &Hub{opt: opt.withDefaults(), jobs: make(map[string]*JobStore)}
}

// Job returns the store for id, creating it with the hub defaults on first
// use. Re-requesting an existing id returns the same store (a job resumed
// by a recovered control plane keeps its in-memory window).
func (h *Hub) Job(id string) *JobStore {
	return h.JobWithRules(id, h.opt.Rules)
}

// JobWithRules is Job with a per-job rule configuration (e.g. the per-job
// quorum floor from a jobs.Spec); the rules only apply when the store is
// created by this call.
func (h *Hub) JobWithRules(id string, rules RuleConfig) *JobStore {
	h.mu.Lock()
	defer h.mu.Unlock()
	if js, ok := h.jobs[id]; ok {
		return js
	}
	opt := h.opt
	opt.Rules = rules.withDefaults()
	js := newJobStore(id, opt)
	h.jobs[id] = js
	h.order = append(h.order, id)
	return js
}

// DefaultRules returns the hub's default rule configuration — the base a
// caller customizes per job (e.g. wiring a jobs.Spec's quorum floor into
// QuorumMin) before JobWithRules.
func (h *Hub) DefaultRules() RuleConfig {
	return h.opt.Rules
}

// Get returns the store for id, or false if no round of it was ever seen.
func (h *Hub) Get(id string) (*JobStore, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	js, ok := h.jobs[id]
	return js, ok
}

// List returns the registered job IDs in creation order.
func (h *Hub) List() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.order...)
}

// Close closes every store (flushing event logs) and returns the first
// error.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for _, id := range h.order {
		if err := h.jobs[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// percentile returns the nearest-rank p-th percentile of sorted values,
// or NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return nan()
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
