// Package trace is a zero-dependency hierarchical span tracer for the
// federated runtimes: a run contains rounds, a round contains engine
// phases (select, execute, aggregate, evaluate) and per-client solve
// spans, and worker processes contribute child spans for the local-solve
// sub-phases (the full-gradient anchor computation and the inner prox-VR
// loop). Spans carry explicit parent IDs, so a trace file is a tree even
// when spans come from several processes.
//
// Two exporters render the collected trace: WriteChrome emits Chrome
// trace-event JSON openable directly in Perfetto or chrome://tracing, and
// WriteJSONL emits one span (or event) per line, symmetric with the
// per-round JSONL log of internal/obs.
//
// The package follows the obs contract: a nil *Tracer is a valid no-op
// receiver for every method, so the tracing-off path costs one pointer
// check and allocates nothing (see BenchmarkEngineRoundAllocs). Cross-
// process propagation uses WireSpan: the coordinator stamps its trace and
// round-span IDs into each round request, workers record spans relative
// to the request's receipt (no clock synchronization needed) and ship
// them back in the reply, and IngestWire re-bases them onto the
// coordinator's timeline.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Rec is one recorded span. Times are seconds since the tracer's epoch.
// End < Start marks a span still open at export time.
type Rec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Proc and Lane place the span on the exported timeline: Proc is the
	// process row group (Chrome pid), Lane the row within it (Chrome tid).
	// Empty Proc means the tracer's own process.
	Proc  string  `json:"proc,omitempty"`
	Lane  string  `json:"lane,omitempty"`
	Round int     `json:"round,omitempty"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// EventRec is one instant event (a fault, a retry, a straggler cut)
// anchored to a span.
type EventRec struct {
	Span   uint64  `json:"span,omitempty"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Proc   string  `json:"proc,omitempty"`
	Lane   string  `json:"lane,omitempty"`
	Round  int     `json:"round,omitempty"`
	TS     float64 `json:"ts"`
}

// Tracer collects spans and events for one training run. Safe for
// concurrent use; a nil *Tracer is a no-op for every method.
type Tracer struct {
	mu      sync.Mutex
	proc    string
	traceID uint64
	epoch   time.Time
	nextID  uint64
	spans   []Rec
	events  []EventRec

	curRun   uint64
	curRound uint64
	roundN   int
}

// New builds a wall-clock tracer whose epoch is the call time. proc names
// this process's row group in exported timelines (e.g. "fedsim",
// "coordinator").
func New(proc string) *Tracer {
	now := time.Now()
	return &Tracer{proc: proc, epoch: now, traceID: uint64(now.UnixNano())}
}

// TraceID identifies this trace; propagated to workers in round requests.
// Zero for a nil tracer (the wire value for "tracing off").
func (t *Tracer) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.traceID
}

// Since converts an absolute wall-clock time into the tracer's epoch-
// relative seconds (for re-basing worker spans onto this timeline).
func (t *Tracer) Since(at time.Time) float64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Seconds()
}

// now returns the current epoch-relative time.
func (t *Tracer) now() float64 {
	return time.Since(t.epoch).Seconds()
}

// startLocked appends an open span and returns its handle. Caller holds mu.
func (t *Tracer) startLocked(name, proc, lane string, parent uint64, round int, start float64) Span {
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, Rec{
		ID: id, Parent: parent, Name: name, Proc: proc, Lane: lane,
		Round: round, Start: start, End: -1,
	})
	return Span{t: t, idx: len(t.spans) - 1, id: id}
}

// StartSpan opens a span under an explicit parent (0 = root) on the
// default lane.
func (t *Tracer) StartSpan(name string, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(name, "", "", parent, t.roundN, t.now())
}

// StartRun opens the root run span and makes it the ambient parent for
// rounds.
func (t *Tracer) StartRun(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.startLocked(name, "", "engine", 0, 0, t.now())
	t.curRun = sp.id
	t.curRound = 0
	return sp
}

// StartRound opens the span of global iteration round under the current
// run span and makes it the ambient parent for phases, client spans, and
// round events until the next StartRound.
func (t *Tracer) StartRound(round int) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roundN = round
	sp := t.startLocked("round "+strconv.Itoa(round), "", "engine", t.curRun, round, t.now())
	t.curRound = sp.id
	return sp
}

// StartPhase opens an engine-phase span (select, execute, aggregate,
// evaluate) under the current round span (or the run span before any
// round).
func (t *Tracer) StartPhase(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.curRound
	if parent == 0 {
		parent = t.curRun
	}
	return t.startLocked(name, "", "engine", parent, t.roundN, t.now())
}

// StartClient opens a per-client solve (or round-trip) span under the
// current round span, on that client's own lane.
func (t *Tracer) StartClient(id int) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.curRound
	if parent == 0 {
		parent = t.curRun
	}
	return t.startLocked("client "+strconv.Itoa(id), "", "client "+strconv.Itoa(id), parent, t.roundN, t.now())
}

// CurrentRound returns the ambient round span ID (0 before the first
// round) — the parent the coordinator propagates to workers.
func (t *Tracer) CurrentRound() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curRound
}

// RoundEvent records an instant event (fault, retry, rejoin, straggler
// cut, chaos injection) on the current round span.
func (t *Tracer) RoundEvent(name, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	span := t.curRound
	if span == 0 {
		span = t.curRun
	}
	t.events = append(t.events, EventRec{
		Span: span, Name: name, Detail: detail, Lane: "engine",
		Round: t.roundN, TS: t.now(),
	})
}

// IngestWire merges worker-recorded spans into this trace: fresh IDs are
// allocated (worker IDs are only unique per reply), wire-internal parent
// links are remapped, a zero wire parent becomes parent (the propagated
// coordinator span), and times — relative to the worker's round receipt —
// are re-based to base on this tracer's timeline. proc places the spans on
// the worker's own process row.
func (t *Tracer) IngestWire(spans []WireSpan, parent uint64, proc string, base time.Time) {
	if t == nil || len(spans) == 0 {
		return
	}
	off := t.Since(base)
	t.mu.Lock()
	defer t.mu.Unlock()
	idmap := make(map[uint64]uint64, len(spans))
	for _, ws := range spans {
		t.nextID++
		id := t.nextID
		idmap[ws.ID] = id
		p := parent
		if ws.Parent != 0 {
			if mp, ok := idmap[ws.Parent]; ok {
				p = mp
			}
		}
		t.spans = append(t.spans, Rec{
			ID: id, Parent: p, Name: ws.Name, Proc: proc,
			Round: t.roundN, Start: off + ws.Start, End: off + ws.End,
		})
	}
}

// Spans returns a snapshot of the recorded spans (export and tests).
func (t *Tracer) Spans() []Rec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Rec(nil), t.spans...)
}

// Events returns a snapshot of the recorded instant events.
func (t *Tracer) Events() []EventRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]EventRec(nil), t.events...)
}

// Span is a handle to an open span. The zero Span (and any span from a
// nil tracer) is a no-op.
type Span struct {
	t   *Tracer
	idx int
	id  uint64
}

// End closes the span at the tracer's current time.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.idx].End = s.t.now()
	s.t.mu.Unlock()
}
