// Package obs is the observability layer of the federated runtimes: a
// per-round RoundStats record (phase timings, per-client latencies,
// transport bandwidth, fault counts) collected by the engine and fanned out
// to pluggable sinks — a JSONL event log, an in-process Prometheus-style
// registry, and a terminal summary. NewAdminMux serves a registry on one
// plain http.ServeMux: /metrics, /healthz, /buildz and pprof.
//
// The package is a leaf: the engine and the executor backends produce
// RoundStats, the cmds choose sinks. Collection is strictly opt-in — an
// engine without a stats recorder takes no timing samples and allocates
// nothing extra per round (see BenchmarkEngineRoundAllocs).
package obs

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// ClientStat is one participating device's latency in a round.
type ClientStat struct {
	// ID is the device/client ID.
	ID int `json:"id"`
	// Seconds is the end-to-end latency the executor observed for this
	// device (for the TCP backend this includes the network round trip).
	Seconds float64 `json:"seconds"`
	// SolveSeconds is the device-side local-solve time. In-process backends
	// report the same value as Seconds; the TCP worker measures it locally
	// and ships it back in the round reply, so Seconds − SolveSeconds
	// approximates the communication share d_com of the paper's time model.
	SolveSeconds float64 `json:"solve_seconds"`
}

// RoundStats is one completed global round's system accounting. Byte and
// retry counts are per-round deltas, not cumulative totals; GradEvals is
// cumulative (matching metrics.Point).
type RoundStats struct {
	Round        int `json:"round"`
	Participants int `json:"participants"`
	// Failed counts selected devices whose executor run failed (crashed TCP
	// worker, exhausted retries); Stragglers counts devices cut from the
	// round by the straggler policy (RoundDeadline/MinReport) — healthy but
	// late, distinct from failed; Dropouts counts devices removed by the
	// engine's own failure injection before the fan-out.
	Failed     int `json:"failed"`
	Stragglers int `json:"stragglers"`
	Dropouts   int `json:"dropouts"`
	// Retries counts round-request resends after application-level worker
	// errors; Rejoins counts replacement connections adopted this round.
	// Both are zero for in-process backends.
	Retries int `json:"retries"`
	Rejoins int `json:"rejoins"`
	// GradEvals is the cumulative gradient-evaluation count across devices.
	GradEvals int64 `json:"grad_evals"`
	// BytesSent/BytesRecv are the transport wire bytes moved this round,
	// counted on the raw connections so framing overhead is included
	// (zero for in-process backends).
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// SpanBytes is the portion of BytesRecv occupied by shipped trace spans
	// (-trace-spans on the worker side). The closed-form
	// RequestWireSize/ReplyWireSize are span-free by construction, so the
	// byte-exact accounting identity under tracing is
	// BytesRecv − SpanBytes == Σ ReplyWireSize. Zero with tracing off.
	SpanBytes int64 `json:"span_bytes,omitempty"`
	// Shards is the number of aggregation-tree child nodes that reported
	// this round (tree coordinator only; zero for flat backends). When set,
	// Participants is the device-level total rolled up from the shards'
	// PartialSum frames, not a per-connection count, and Failed and
	// Stragglers are zero.
	Shards int `json:"shards,omitempty"`
	// Codec is the wire codec the transport used this round ("float64",
	// "int8", "topk-delta", ...); empty for in-process backends.
	Codec string `json:"codec,omitempty"`
	// Wall-clock phase timings of the engine's outer loop.
	SelectSeconds float64 `json:"select_seconds"`
	ExecSeconds   float64 `json:"exec_seconds"`
	AggSeconds    float64 `json:"agg_seconds"`
	EvalSeconds   float64 `json:"eval_seconds"`
	// SimSeconds is the simulated clock after this round (simnet backend
	// only; zero elsewhere).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// Eval carries the server-side convergence measurements of an
	// evaluation round (engine.Run stamps it, whatever drives the run).
	// Nil on rounds that did not measure, so the
	// system record stays pure accounting on non-eval rounds.
	Eval *EvalStats `json:"eval,omitempty"`
	// Clients holds per-participant latencies, in fan-out order.
	Clients []ClientStat `json:"clients,omitempty"`
}

// EvalStats is the convergence slice of a round record: the objective
// F̄(w), test accuracy, and the stationarity gap ‖∇F̄(w)‖² of eq. (12).
// Unmeasured entries are NaN (e.g. TestAcc without a test set).
type EvalStats struct {
	TrainLoss  float64
	TestAcc    float64
	GradNormSq float64
}

// MarshalJSON renders NaN/±Inf as null: the JSONL sink feeds the record
// straight to encoding/json, which rejects non-finite floats, and a run
// without a test set must not poison the whole trace line.
func (ev EvalStats) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 64)
	b = append(b, `{"train_loss":`...)
	b = appendJSONFloat(b, ev.TrainLoss)
	b = append(b, `,"test_acc":`...)
	b = appendJSONFloat(b, ev.TestAcc)
	b = append(b, `,"grad_norm_sq":`...)
	b = appendJSONFloat(b, ev.GradNormSq)
	return append(b, '}'), nil
}

// appendJSONFloat appends v as a JSON number, or null when non-finite.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Reset clears the record for the next round, keeping the Clients backing
// array so steady-state collection does not reallocate.
func (rs *RoundStats) Reset() {
	clients := rs.Clients[:0]
	*rs = RoundStats{Clients: clients}
}

// Sink consumes completed round records. The *RoundStats argument (and its
// Clients slice) is only valid during the call — sinks that retain data
// must copy what they need.
type Sink interface {
	RecordRound(rs *RoundStats)
	// Close flushes the sink and surfaces any deferred error (e.g. a failed
	// JSONL write).
	Close() error
}

// Collector fans completed rounds out to a set of sinks. It satisfies the
// engine's StatsRecorder interface and is safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	sinks []Sink
}

// NewCollector builds a collector over the given sinks.
func NewCollector(sinks ...Sink) *Collector {
	return &Collector{sinks: sinks}
}

// RecordRound forwards the record to every sink.
func (c *Collector) RecordRound(rs *RoundStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sinks {
		s.RecordRound(rs)
	}
}

// Close closes every sink and returns the first error.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, s := range c.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JSONL writes one JSON object per round to an io.Writer — the `-trace`
// format of the cmds. Write errors are deferred and surfaced by Close, so a
// full disk does not abort training mid-run.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL builds a JSONL sink over w. The caller keeps ownership of w
// (close the underlying file after Close).
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// RecordRound implements Sink.
func (j *JSONL) RecordRound(rs *RoundStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(rs)
}

// Close implements Sink, returning the first deferred write error.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
