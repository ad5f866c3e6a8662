package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"fedproxvr/internal/obs"
)

// fixedClock returns a nowFn stepping 1 s per call from a fixed epoch, so
// AtUnixMs fields are deterministic for goldens.
func fixedClock() func() time.Time {
	t0 := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n-1) * time.Second)
	}
}

func testHub(opt Options) *Hub {
	opt.nowFn = fixedClock()
	return NewHub(opt)
}

// roundStats builds a RoundStats for store tests.
func roundStats(round int, mut func(*obs.RoundStats)) *obs.RoundStats {
	rs := &obs.RoundStats{Round: round, Participants: 4}
	if mut != nil {
		mut(rs)
	}
	return rs
}

func TestStoreRingAndSeries(t *testing.T) {
	h := testHub(Options{Rounds: 4, Events: 4})
	js := h.Job("j1")
	for r := 1; r <= 10; r++ {
		js.RecordRound(roundStats(r, nil))
	}
	if got := js.snapshot().ingested; got != 10 {
		t.Fatalf("ingested %d rounds, want 10", got)
	}
	// Ring of 4: rounds 7..10 retained.
	all := js.Series(0, 0, 0)
	if len(all) != 4 || all[0].Round != 7 || all[3].Round != 10 {
		t.Fatalf("retained rounds = %v", roundsOf(all))
	}
	// Range query.
	if got := roundsOf(js.Series(8, 9, 0)); len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("Series(8,9) = %v", got)
	}
	// Limit keeps the most recent.
	if got := roundsOf(js.Series(0, 0, 2)); len(got) != 2 || got[0] != 9 || got[1] != 10 {
		t.Fatalf("Series limit 2 = %v", got)
	}
	if s, ok := js.Latest(); !ok || s.Round != 10 {
		t.Fatalf("Latest = %+v ok=%v", s, ok)
	}
}

func roundsOf(ss []Sample) []int {
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = s.Round
	}
	return out
}

func TestStoreSampleFields(t *testing.T) {
	h := testHub(Options{})
	js := h.Job("j1")
	js.noteDiag(Diag{DriftMean: 0.5, DriftMax: 1.5, UpdateVar: 0.25, UpdateNorm: 2})
	js.RecordRound(roundStats(3, func(rs *obs.RoundStats) {
		rs.Stragglers = 1
		rs.BytesSent, rs.BytesRecv = 100, 200
		rs.Eval = &obs.EvalStats{TrainLoss: 0.7, TestAcc: 0.9, GradNormSq: 0.01}
		rs.Clients = []obs.ClientStat{
			{ID: 0, Seconds: 0.010}, {ID: 1, Seconds: 0.030},
			{ID: 2, Seconds: 0.020}, {ID: 3, Seconds: 0.500},
		}
	}))
	s, ok := js.Latest()
	if !ok {
		t.Fatal("no sample")
	}
	if s.TrainLoss != 0.7 || s.TestAcc != 0.9 || s.GradNormSq != 0.01 {
		t.Fatalf("eval fields: %+v", s)
	}
	if s.DriftMean != 0.5 || s.DriftMax != 1.5 || s.UpdateVar != 0.25 || s.UpdateNorm != 2 {
		t.Fatalf("diag fields: %+v", s)
	}
	// Nearest-rank percentiles of {0.010, 0.020, 0.030, 0.500}.
	if s.LatP50 != 0.020 || s.LatP90 != 0.500 || s.LatP99 != 0.500 {
		t.Fatalf("latency percentiles: p50=%v p90=%v p99=%v", s.LatP50, s.LatP90, s.LatP99)
	}
	if !math.IsNaN(s.SimSeconds) {
		t.Fatalf("SimSeconds should be NaN off-simnet, got %v", s.SimSeconds)
	}
	// Diag is consumed: the next round without a probe note has NaN diag.
	js.RecordRound(roundStats(4, nil))
	s2, _ := js.Latest()
	if !math.IsNaN(s2.DriftMean) || !math.IsNaN(s2.TrainLoss) || !math.IsNaN(s2.LatP50) {
		t.Fatalf("round without eval/diag/clients should be NaN: %+v", s2)
	}
}

func TestSampleJSONNullsAndRoundTrip(t *testing.T) {
	s := Sample{Round: 7, TrainLoss: 0.5,
		TestAcc: nan(), GradNormSq: math.Inf(1),
		SimSeconds: nan(), LatP50: nan(), LatP90: nan(), LatP99: nan(),
		DriftMean: nan(), DriftMax: nan(), UpdateVar: nan(), UpdateNorm: nan(),
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, want := range []string{`"train_loss":0.5`, `"test_acc":null`, `"grad_norm_sq":null`, `"round":7`} {
		if !strings.Contains(body, want) {
			t.Fatalf("marshal missing %s in %s", want, body)
		}
	}
	var back Sample
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Round != 7 || back.TrainLoss != 0.5 || !math.IsNaN(back.TestAcc) || !math.IsNaN(back.GradNormSq) {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestStoreEventsAndJSONLLog(t *testing.T) {
	h := testHub(Options{Rules: RuleConfig{LossRisingK: 2}})
	js := h.Job("j1")
	var buf bytes.Buffer
	js.SetEventLog(&buf)
	losses := []float64{1.0, 1.1, 1.2, 0.9} // rise, rise → fire at r3; decrease → clear at r4
	for i, l := range losses {
		l := l
		js.RecordRound(roundStats(i+1, func(rs *obs.RoundStats) {
			rs.Eval = &obs.EvalStats{TrainLoss: l, TestAcc: nan(), GradNormSq: nan()}
		}))
	}
	evs := js.Events(0, 0)
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want fire+clear", evs)
	}
	if evs[0].Rule != RuleLossRising || evs[0].State != "firing" || evs[0].Round != 3 || evs[0].Seq != 0 {
		t.Fatalf("fire event: %+v", evs[0])
	}
	if evs[1].State != "cleared" || evs[1].Round != 4 || evs[1].Seq != 1 {
		t.Fatalf("clear event: %+v", evs[1])
	}
	// Range query by round.
	if got := js.Events(4, 0); len(got) != 1 || got[0].State != "cleared" {
		t.Fatalf("Events(4,0) = %+v", got)
	}
	// The JSONL mirror carries the same two events, one JSON object per line.
	var lines []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 || lines[0].Rule != RuleLossRising || lines[0].Job != "j1" {
		t.Fatalf("JSONL lines: %+v", lines)
	}
	if err := js.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestStoreHealthStaleness(t *testing.T) {
	clock := time.Unix(1700000000, 0).UTC()
	h := NewHub(Options{StaleAfter: 10 * time.Second, nowFn: func() time.Time { return clock }})
	js := h.Job("j1")
	// Never ingested: not stale (mirrors the global probe's "no first round
	// yet" grace).
	if _, stale := js.Health(); stale {
		t.Fatal("empty store must not be stale")
	}
	js.RecordRound(roundStats(1, nil))
	if _, stale := js.Health(); stale {
		t.Fatal("fresh ingest must not be stale")
	}
	clock = clock.Add(11 * time.Second)
	if _, stale := js.Health(); !stale {
		t.Fatal("11s of silence past a 10s budget must be stale")
	}
	js.RecordRound(roundStats(2, nil))
	if _, stale := js.Health(); stale {
		t.Fatal("new round must clear staleness")
	}
}

func TestHubListAndPrometheus(t *testing.T) {
	h := testHub(Options{Rules: RuleConfig{LossRisingK: 1}})
	a := h.Job("a")
	_ = h.Job("b")
	if got := h.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
	if same := h.Job("a"); same != a {
		t.Fatal("Job must return the existing store")
	}
	// Fire loss_rising on job a.
	for i, l := range []float64{1.0, 2.0} {
		l := l
		a.RecordRound(roundStats(i+1, func(rs *obs.RoundStats) {
			rs.Eval = &obs.EvalStats{TrainLoss: l, TestAcc: nan(), GradNormSq: nan()}
			rs.Clients = []obs.ClientStat{{ID: 0, Seconds: 0.01}}
		}))
	}
	var buf bytes.Buffer
	if err := h.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`fed_alert_total{job="a",rule="loss_rising"} 1`,
		`fed_alert_active{job="a",rule="loss_rising"} 1`,
		`fed_alert_total{job="b",rule="loss_rising"} 0`,
		`fed_alert_events_total{job="a"} 1`,
		`fed_telemetry_rounds_ingested_total{job="a"} 2`,
		`fed_telemetry_client_seconds_count{job="a"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// The hub's exposition holds to the same hygiene rules as the registry.
	if problems := obs.LintExposition(body); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(sorted, 0.5); p != 5 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(sorted, 0.9); p != 9 {
		t.Fatalf("p90 = %v", p)
	}
	if p := percentile(sorted, 0.99); p != 10 {
		t.Fatalf("p99 = %v", p)
	}
}
