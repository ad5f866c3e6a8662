package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"fedproxvr/internal/obs"
)

// Event is one alert-rule state transition: a rule starting to fire or
// clearing. Events get a per-job monotonic sequence number so API clients
// and the SSE feed can resume without duplicates.
type Event struct {
	Seq       int64
	Job       string
	Rule      string
	State     string // "firing" | "cleared"
	Severity  string // "critical" | "warning"
	Round     int
	Value     float64 // rule-specific observed value (NaN when n/a)
	Threshold float64 // rule-specific threshold (NaN/0 when n/a)
	Message   string
	AtUnixMs  int64
}

type eventJSON struct {
	Seq       int64    `json:"seq"`
	Job       string   `json:"job"`
	Rule      string   `json:"rule"`
	State     string   `json:"state"`
	Severity  string   `json:"severity"`
	Round     int      `json:"round"`
	Value     *float64 `json:"value"`
	Threshold *float64 `json:"threshold"`
	Message   string   `json:"message"`
	AtUnixMs  int64    `json:"at_unix_ms"`
}

// MarshalJSON renders NaN/Inf value fields as null (encoding/json rejects
// non-finite floats).
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq: e.Seq, Job: e.Job, Rule: e.Rule, State: e.State, Severity: e.Severity,
		Round: e.Round, Value: fptr(e.Value), Threshold: fptr(e.Threshold),
		Message: e.Message, AtUnixMs: e.AtUnixMs,
	})
}

// UnmarshalJSON is the inverse (null → NaN).
func (e *Event) UnmarshalJSON(b []byte) error {
	var ej eventJSON
	if err := json.Unmarshal(b, &ej); err != nil {
		return err
	}
	deref := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	*e = Event{
		Seq: ej.Seq, Job: ej.Job, Rule: ej.Rule, State: ej.State, Severity: ej.Severity,
		Round: ej.Round, Value: deref(ej.Value), Threshold: deref(ej.Threshold),
		Message: ej.Message, AtUnixMs: ej.AtUnixMs,
	}
	return nil
}

// Diag is the Probe's per-round output (see probe.go); NaN fields mean
// the round aggregated nothing.
type Diag struct {
	DriftMean  float64
	DriftMax   float64
	UpdateVar  float64
	UpdateNorm float64
	NonFinite  bool
}

// latBounds are the log-bucketed client-latency histogram upper bounds in
// seconds (×4 steps from 1 ms to ~17 min, +Inf overflow) — fixed size, so
// a job's histogram is bounded memory no matter how long it runs.
var latBounds = [...]float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536, 262.144}

// eventRing is the per-job alert-event ring capacity.
const eventRing = 256

// sseMsg is one pre-marshaled server-sent event.
type sseMsg struct {
	event string // "sample" | "alert"
	data  []byte
}

// JobStore is one job's telemetry window: a fixed ring of per-round
// samples, a fixed ring of alert events, the rule state machine, the
// latency histogram, and the SSE fan-out. It implements obs.Sink, so it
// plugs into the engine's stats path like any other sink; it is safe for
// concurrent use.
type JobStore struct {
	mu  sync.Mutex
	id  string
	opt Options

	samples []Sample // ring, cap opt.Rounds
	head    int      // index of oldest sample
	n       int      // live samples in ring

	events []Event // ring, cap eventRing
	ehead  int
	en     int
	seq    int64 // next event sequence number

	rules  *ruleEngine
	target int // expected total rounds (0 = unknown)

	pendingDiag Diag
	hasDiag     bool

	latCounts [len(latBounds) + 1]int64 // +Inf overflow in the last slot
	latSum    float64
	latN      int64
	latScr    []float64 // sort scratch, reused across rounds

	ingested    int64
	lastIngest  time.Time
	alertsTotal map[string]int64
	eventsTotal int64

	eventLog *json.Encoder
	logErr   error

	subs    map[int]chan sseMsg
	nextSub int
}

func newJobStore(id string, opt Options) *JobStore {
	return &JobStore{
		id:          id,
		opt:         opt,
		samples:     make([]Sample, opt.Rounds),
		events:      make([]Event, eventRing),
		rules:       newRuleEngine(opt.Rules),
		alertsTotal: make(map[string]int64),
		subs:        make(map[int]chan sseMsg),
	}
}

// ID returns the job ID the store was created under.
func (js *JobStore) ID() string { return js.id }

func (js *JobStore) now() time.Time {
	if js.opt.nowFn != nil {
		return js.opt.nowFn()
	}
	return time.Now()
}

// SetEventLog mirrors every alert event to w as one JSON object per line
// (the durable JSONL trail next to a job's checkpoints). Write errors are
// deferred and surfaced by Close, matching obs.JSONL.
func (js *JobStore) SetEventLog(w io.Writer) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.eventLog = json.NewEncoder(w)
}

// SetTarget records the run's planned total rounds so the API and the
// dashboard can show progress; 0 means unknown.
func (js *JobStore) SetTarget(rounds int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.target = rounds
}

// Target returns the planned total rounds (0 = unknown).
func (js *JobStore) Target() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.target
}

// noteDiag stashes the Probe's diagnostics for the in-flight round; the
// next RecordRound merges and clears them. Step runs the aggregator before
// the engine flushes stats, so the pairing is exact.
func (js *JobStore) noteDiag(d Diag) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.pendingDiag = d
	js.hasDiag = true
}

// RecordRound implements obs.Sink: ingest one completed round — build the
// sample, merge probe diagnostics, update the latency histogram, run the
// alert rules, ring-append, mirror events to the JSONL log, and fan out to
// SSE subscribers.
func (js *JobStore) RecordRound(rs *obs.RoundStats) {
	js.mu.Lock()

	s := Sample{
		Round:    rs.Round,
		AtUnixMs: js.now().UnixMilli(),

		Participants: rs.Participants,
		Failed:       rs.Failed,
		Stragglers:   rs.Stragglers,
		Dropouts:     rs.Dropouts,
		Retries:      rs.Retries,
		Rejoins:      rs.Rejoins,
		GradEvals:    rs.GradEvals,
		BytesSent:    rs.BytesSent,
		BytesRecv:    rs.BytesRecv,

		SelectSeconds: rs.SelectSeconds,
		ExecSeconds:   rs.ExecSeconds,
		AggSeconds:    rs.AggSeconds,
		EvalSeconds:   rs.EvalSeconds,
		SimSeconds:    nan(),

		LatP50: nan(), LatP90: nan(), LatP99: nan(),
		TrainLoss: nan(), TestAcc: nan(), GradNormSq: nan(),
		DriftMean: nan(), DriftMax: nan(), UpdateVar: nan(), UpdateNorm: nan(),
	}
	if rs.SimSeconds != 0 {
		s.SimSeconds = rs.SimSeconds
	}
	if ev := rs.Eval; ev != nil {
		s.TrainLoss = ev.TrainLoss
		s.TestAcc = ev.TestAcc
		s.GradNormSq = ev.GradNormSq
	}
	if js.hasDiag {
		d := js.pendingDiag
		s.DriftMean, s.DriftMax = d.DriftMean, d.DriftMax
		s.UpdateVar, s.UpdateNorm = d.UpdateVar, d.UpdateNorm
		s.NonFinite = d.NonFinite
		js.hasDiag = false
	}

	// Per-round latency percentiles + the cumulative log-bucket histogram.
	if len(rs.Clients) > 0 {
		js.latScr = js.latScr[:0]
		for _, c := range rs.Clients {
			js.latScr = append(js.latScr, c.Seconds)
			js.latSum += c.Seconds
			js.latN++
			b := 0
			for b < len(latBounds) && c.Seconds > latBounds[b] {
				b++
			}
			js.latCounts[b]++
		}
		sort.Float64s(js.latScr)
		s.LatP50 = percentile(js.latScr, 0.50)
		s.LatP90 = percentile(js.latScr, 0.90)
		s.LatP99 = percentile(js.latScr, 0.99)
	}

	// Alert rules: state transitions become events.
	var newEvents []Event
	for _, tr := range js.rules.eval(&s) {
		state := "cleared"
		if tr.Firing {
			state = "firing"
			js.alertsTotal[tr.Rule]++
		}
		e := Event{
			Seq: js.seq, Job: js.id, Rule: tr.Rule, State: state,
			Severity: tr.Severity, Round: s.Round,
			Value: tr.Value, Threshold: tr.Threshold,
			Message: tr.Message, AtUnixMs: s.AtUnixMs,
		}
		js.seq++
		js.eventsTotal++
		js.appendEventLocked(e)
		newEvents = append(newEvents, e)
		if js.eventLog != nil && js.logErr == nil {
			js.logErr = js.eventLog.Encode(e)
		}
	}

	// Ring-append the sample.
	if js.n < len(js.samples) {
		js.samples[(js.head+js.n)%len(js.samples)] = s
		js.n++
	} else {
		js.samples[js.head] = s
		js.head = (js.head + 1) % len(js.samples)
	}
	js.ingested++
	js.lastIngest = js.now()

	// Pre-marshal once, fan out to every subscriber without blocking the
	// training loop: a slow SSE client drops messages, never stalls rounds.
	var msgs []sseMsg
	if len(js.subs) > 0 {
		if b, err := json.Marshal(s); err == nil {
			msgs = append(msgs, sseMsg{event: "sample", data: b})
		}
		for _, e := range newEvents {
			if b, err := json.Marshal(e); err == nil {
				msgs = append(msgs, sseMsg{event: "alert", data: b})
			}
		}
		for _, ch := range js.subs {
			for _, m := range msgs {
				select {
				case ch <- m:
				default:
				}
			}
		}
	}
	js.mu.Unlock()
}

func (js *JobStore) appendEventLocked(e Event) {
	if js.en < len(js.events) {
		js.events[(js.ehead+js.en)%len(js.events)] = e
		js.en++
	} else {
		js.events[js.ehead] = e
		js.ehead = (js.ehead + 1) % len(js.events)
	}
}

// Close implements obs.Sink, surfacing any deferred event-log write error.
func (js *JobStore) Close() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.logErr
}

// Series returns the retained samples with from ≤ Round ≤ to (to ≤ 0 means
// no upper bound), oldest first, capped at limit (≤ 0 means no cap).
func (js *JobStore) Series(from, to, limit int) []Sample {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]Sample, 0, js.n)
	for i := 0; i < js.n; i++ {
		s := js.samples[(js.head+i)%len(js.samples)]
		if s.Round < from || (to > 0 && s.Round > to) {
			continue
		}
		out = append(out, s)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:] // keep the most recent rounds
	}
	return out
}

// Events returns the retained alert events with from ≤ Round ≤ to (to ≤ 0
// means no upper bound), oldest first.
func (js *JobStore) Events(from, to int) []Event {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]Event, 0, js.en)
	for i := 0; i < js.en; i++ {
		e := js.events[(js.ehead+i)%len(js.events)]
		if e.Round < from || (to > 0 && e.Round > to) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Latest returns the most recent sample, or false before the first round.
func (js *JobStore) Latest() (Sample, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.n == 0 {
		return Sample{}, false
	}
	return js.samples[(js.head+js.n-1)%len(js.samples)], true
}

// Health reports the store's alert view: the currently-firing rules (in
// fixed rule order) and whether ingest has gone stale — no round for
// longer than Options.StaleAfter while at least one round was seen. The
// caller (the per-job healthz) decides how job state maps these to HTTP
// status; a finished job is naturally "stale" and should not be probed.
func (js *JobStore) Health() (active []string, stale bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	active = js.rules.activeRules()
	if js.opt.StaleAfter > 0 && js.ingested > 0 {
		stale = js.now().Sub(js.lastIngest) > js.opt.StaleAfter
	}
	return active, stale
}

// counters is the Prometheus snapshot of one store.
type counters struct {
	alertsTotal map[string]int64
	active      map[string]bool
	eventsTotal int64
	ingested    int64
	latCounts   [len(latBounds) + 1]int64
	latSum      float64
	latN        int64
}

func (js *JobStore) snapshot() counters {
	js.mu.Lock()
	defer js.mu.Unlock()
	c := counters{
		alertsTotal: make(map[string]int64, len(js.alertsTotal)),
		active:      make(map[string]bool, len(RuleNames)),
		eventsTotal: js.eventsTotal,
		ingested:    js.ingested,
		latCounts:   js.latCounts,
		latSum:      js.latSum,
		latN:        js.latN,
	}
	for r, n := range js.alertsTotal {
		c.alertsTotal[r] = n
	}
	for _, r := range js.rules.activeRules() {
		c.active[r] = true
	}
	return c
}

// subscribe registers an SSE subscriber and returns its id and channel.
// The channel is buffered; RecordRound drops messages rather than block.
func (js *JobStore) subscribe() (int, chan sseMsg) {
	js.mu.Lock()
	defer js.mu.Unlock()
	id := js.nextSub
	js.nextSub++
	ch := make(chan sseMsg, 256)
	js.subs[id] = ch
	return id, ch
}

func (js *JobStore) unsubscribe(id int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	delete(js.subs, id)
}
