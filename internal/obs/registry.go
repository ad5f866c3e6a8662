package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// clientBuckets are the fixed upper bounds (seconds) of the
// fed_client_seconds histogram. Fixed boundaries keep scrapes comparable
// across runs and make the exposition deterministic for the golden test.
var clientBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry aggregates round records into a small fixed set of gauges,
// counters and one latency histogram, and renders them in the Prometheus
// text exposition format. Its zero value is ready to use; it doubles as an
// http.Handler serving the exposition (mounted at /metrics by NewAdminMux).
type Registry struct {
	mu           sync.Mutex
	round        int // gauge: last completed round
	participants int // gauge: last round's cohort size

	rounds, failed, stragglers, dropouts, retries, rejoins int64
	gradEvals, bytesSent, bytesRecv                        int64
	selectSec, execSec, aggSec, evalSec                    float64

	// fed_client_seconds histogram over per-client round-trip latencies.
	clientBucket []int64 // one count per clientBuckets entry (lazily sized)
	clientSum    float64
	clientCount  int64

	lastRound time.Time // when the last round was recorded (staleness probe)

	// nowFn is the clock, overridable by tests; nil means time.Now.
	nowFn func() time.Time
}

func (r *Registry) now() time.Time {
	if r.nowFn == nil {
		return time.Now()
	}
	return r.nowFn()
}

// RecordRound implements Sink.
func (r *Registry) RecordRound(rs *RoundStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.round = rs.Round
	r.participants = rs.Participants
	r.rounds++
	r.failed += int64(rs.Failed)
	r.stragglers += int64(rs.Stragglers)
	r.dropouts += int64(rs.Dropouts)
	r.retries += int64(rs.Retries)
	r.rejoins += int64(rs.Rejoins)
	r.gradEvals = rs.GradEvals // already cumulative
	r.bytesSent += rs.BytesSent
	r.bytesRecv += rs.BytesRecv
	r.selectSec += rs.SelectSeconds
	r.execSec += rs.ExecSeconds
	r.aggSec += rs.AggSeconds
	r.evalSec += rs.EvalSeconds
	if r.clientBucket == nil {
		r.clientBucket = make([]int64, len(clientBuckets))
	}
	for _, cs := range rs.Clients {
		r.clientSum += cs.Seconds
		r.clientCount++
		for b, ub := range clientBuckets {
			if cs.Seconds <= ub {
				r.clientBucket[b]++
			}
		}
	}
	r.lastRound = r.now()
}

// Close implements Sink.
func (r *Registry) Close() error { return nil }

// Round returns the last completed round (for health endpoints).
func (r *Registry) Round() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.round
}

// LastRoundAge returns how long ago the last round completed. ok is false
// before the first round (a run that has not started yet is not stale).
func (r *Registry) LastRoundAge() (age time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastRound.IsZero() {
		return 0, false
	}
	return r.now().Sub(r.lastRound), true
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ew := &ErrWriter{W: w}
	p := ew.Printf
	p("# HELP fed_round Last completed federated round.\n# TYPE fed_round gauge\nfed_round %d\n", r.round)
	p("# HELP fed_participants Devices that reported in the last round.\n# TYPE fed_participants gauge\nfed_participants %d\n", r.participants)
	p("# HELP fed_rounds_total Completed federated rounds.\n# TYPE fed_rounds_total counter\nfed_rounds_total %d\n", r.rounds)
	p("# HELP fed_failed_total Selected devices whose round failed.\n# TYPE fed_failed_total counter\nfed_failed_total %d\n", r.failed)
	p("# HELP fed_stragglers_total Devices cut from a round by the straggler policy.\n# TYPE fed_stragglers_total counter\nfed_stragglers_total %d\n", r.stragglers)
	p("# HELP fed_dropouts_total Devices removed by dropout injection.\n# TYPE fed_dropouts_total counter\nfed_dropouts_total %d\n", r.dropouts)
	p("# HELP fed_retries_total Round-request retries after application-level worker errors.\n# TYPE fed_retries_total counter\nfed_retries_total %d\n", r.retries)
	p("# HELP fed_rejoins_total Replacement worker connections adopted.\n# TYPE fed_rejoins_total counter\nfed_rejoins_total %d\n", r.rejoins)
	p("# HELP fed_grad_evals_total Cumulative gradient evaluations across devices.\n# TYPE fed_grad_evals_total counter\nfed_grad_evals_total %d\n", r.gradEvals)
	p("# HELP fed_bytes_sent_total Bytes sent to workers by the TCP transport.\n# TYPE fed_bytes_sent_total counter\nfed_bytes_sent_total %d\n", r.bytesSent)
	p("# HELP fed_bytes_received_total Bytes received from workers by the TCP transport.\n# TYPE fed_bytes_received_total counter\nfed_bytes_received_total %d\n", r.bytesRecv)
	p("# HELP fed_phase_seconds_total Wall-clock seconds per engine phase.\n# TYPE fed_phase_seconds_total counter\n")
	p("fed_phase_seconds_total{phase=\"select\"} %g\n", r.selectSec)
	p("fed_phase_seconds_total{phase=\"execute\"} %g\n", r.execSec)
	p("fed_phase_seconds_total{phase=\"aggregate\"} %g\n", r.aggSec)
	p("fed_phase_seconds_total{phase=\"evaluate\"} %g\n", r.evalSec)
	p("# HELP fed_client_seconds Per-client round-trip latency.\n# TYPE fed_client_seconds histogram\n")
	for b, ub := range clientBuckets {
		var n int64
		if r.clientBucket != nil {
			n = r.clientBucket[b]
		}
		p("fed_client_seconds_bucket{le=\"%g\"} %d\n", ub, n)
	}
	p("fed_client_seconds_bucket{le=\"+Inf\"} %d\n", r.clientCount)
	p("fed_client_seconds_sum %g\n", r.clientSum)
	p("fed_client_seconds_count %d\n", r.clientCount)
	return ew.Err
}

// ErrWriter is a sticky-error printf target, so an exposition writer reads
// as straight-line code: after the first failed write every Printf is a
// no-op, and Err holds that failure.
type ErrWriter struct {
	W   io.Writer
	Err error
}

// Printf writes to W unless an earlier write failed.
func (ew *ErrWriter) Printf(format string, args ...any) {
	if ew.Err == nil {
		_, ew.Err = fmt.Fprintf(ew.W, format, args...)
	}
}

// ServeHTTP serves the exposition (implements http.Handler).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
