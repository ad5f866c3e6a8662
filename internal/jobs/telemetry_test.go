package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fedproxvr/internal/obs"
	"fedproxvr/internal/telemetry"
)

// TestJobTelemetryDivergentRunFlagged is the control-plane half of the
// acceptance scenario: a job with a hostile step size (η = 1/(βL), β tiny)
// diverges, and the per-job telemetry store must capture it — loss_rising
// firing event in the durable events.jsonl next to the checkpoints, and a
// fed_alert_total increment on the hub's exposition.
func TestJobTelemetryDivergentRunFlagged(t *testing.T) {
	hub := telemetry.NewHub(telemetry.Options{Rules: telemetry.RuleConfig{LossRisingK: 2}})
	m := openManager(t, t.TempDir(), Options{Telemetry: hub})
	defer m.Stop()
	sp := testSpec("diverge", 40)
	sp.Beta = 0.01 // 500× the stable step size
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "diverge", Done, 30*time.Second)

	js, ok := hub.Get("diverge")
	if !ok {
		t.Fatal("no telemetry store registered for the job")
	}
	if n := len(js.Series(0, 0, 0)); n != 40 {
		t.Fatalf("store holds %d rounds, want 40", n)
	}
	if js.Target() != 40 {
		t.Fatalf("target %d, want 40", js.Target())
	}
	var fired bool
	for _, e := range js.Events(0, 0) {
		if e.Rule == telemetry.RuleLossRising && e.State == "firing" {
			fired = true
		}
	}
	if !fired {
		t.Fatal("divergent job did not fire loss_rising")
	}

	// The durable JSONL trail lives next to the job's checkpoints.
	f, err := os.Open(filepath.Join(m.Dir(), "diverge", "events.jsonl"))
	if err != nil {
		t.Fatalf("events.jsonl missing: %v", err)
	}
	defer f.Close()
	var logged bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad events.jsonl line %q: %v", sc.Text(), err)
		}
		if e.Rule == telemetry.RuleLossRising && e.State == "firing" && e.Job == "diverge" {
			logged = true
		}
	}
	if !logged {
		t.Fatal("loss_rising firing event missing from events.jsonl")
	}

	var expo bytes.Buffer
	if err := hub.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.HasPrefix(line, `fed_alert_total{job="diverge",rule="loss_rising"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("fed_alert_total not incremented: %s", line)
			}
			return
		}
	}
	t.Fatal("fed_alert_total series missing from hub exposition")
}

// TestJobGradNormStallFires is the path fedserver's -alert-grad-eps and
// -alert-grad-stall configure: every evaluation of a job measures the
// eq. (12) gap, so each sample past round 0 carries it, and a step too
// small to move the gap 1 % per evaluation fires grad_norm_stall.
func TestJobGradNormStallFires(t *testing.T) {
	hub := telemetry.NewHub(telemetry.Options{Rules: telemetry.RuleConfig{GradStallEps: 1e-12, GradStallK: 3}})
	m := openManager(t, t.TempDir(), Options{Telemetry: hub})
	defer m.Stop()
	sp := testSpec("stall", 8)
	sp.Beta = 1e6 // η = 1/(βL): the model barely moves
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "stall", Done, 30*time.Second)

	js, ok := hub.Get("stall")
	if !ok {
		t.Fatal("no telemetry store registered for the job")
	}
	samples := js.Series(0, 0, 0)
	if len(samples) != sp.Rounds {
		t.Fatalf("store holds %d rounds, want %d", len(samples), sp.Rounds)
	}
	for _, s := range samples {
		if gn := s.GradNormSq; s.Round > 0 && !(gn > 0 && !math.IsInf(gn, 0)) {
			t.Fatalf("round %d: grad_norm_sq = %v, want finite and positive", s.Round, gn)
		}
	}
	var fired bool
	for _, e := range js.Events(0, 0) {
		if e.Rule == telemetry.RuleGradNormStall && e.State == "firing" {
			fired = true
		}
	}
	if !fired {
		t.Fatal("a stalled job did not fire grad_norm_stall")
	}
}

// TestJobHealthzDegradesOnFiringAlert: a job whose cohort never reaches
// its quorum floor (dropout 1.0) fires quorum_miss after K rounds and
// never clears — /jobs/{id}/healthz must read 503 while the job runs.
func TestJobHealthzDegradesOnFiringAlert(t *testing.T) {
	hub := telemetry.NewHub(telemetry.Options{})
	m := openManager(t, t.TempDir(), Options{Telemetry: hub})
	defer m.Stop()
	sp := testSpec("starved", 100000)
	sp.DropoutProb = 0.999 // effectively every device drops every round
	sp.MinParticipants = 2 // → quorum_miss fires after K misses, never clears
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := srv.Client().Get(srv.URL + "/jobs/starved/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 503 && strings.Contains(body.String(), "quorum_miss") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never degraded; last: %d %s", resp.StatusCode, body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m.Cancel("starved"); err != nil {
		t.Fatal(err)
	}
}

// TestJobHealthzDegradesOnStaleIngest: with a (deliberately absurd) 1 ns
// staleness budget, any gap between rounds reads as a wedged job — a
// RUNNING job's healthz must degrade to 503 with the stale diagnosis.
func TestJobHealthzDegradesOnStaleIngest(t *testing.T) {
	hub := telemetry.NewHub(telemetry.Options{
		StaleAfter: time.Nanosecond,
		// Alerts off so the stale branch is the one exercised.
		Rules: telemetry.RuleConfig{LossRisingK: -1},
	})
	m := openManager(t, t.TempDir(), Options{Telemetry: hub})
	defer m.Stop()
	sp := testSpec("wedged", 100000)
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := srv.Client().Get(srv.URL + "/jobs/wedged/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 503 && strings.Contains(body.String(), "stale") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never went stale; last: %d %s", resp.StatusCode, body.String())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel("wedged"); err != nil {
		t.Fatal(err)
	}
}

// TestJobsExpositionLintAndTransitions: the manager's /metrics families
// hold to the repo's exposition hygiene rules, and lifecycle transitions
// surface as monotonic counters alongside the state gauges.
func TestJobsExpositionLintAndTransitions(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	if _, err := m.Submit(testSpec("quick", 2)); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "quick", Done, 30*time.Second)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if problems := obs.LintExposition(body); len(problems) != 0 {
		t.Fatalf("jobs exposition lint:\n%s\nproblems: %v", body, problems)
	}
	// PENDING → RUNNING → DONE: one transition into each.
	for _, want := range []string{
		`fed_jobs_transitions_total{state="PENDING"} 1`,
		`fed_jobs_transitions_total{state="RUNNING"} 1`,
		`fed_jobs_transitions_total{state="DONE"} 1`,
		`fed_jobs_state{state="DONE"} 1`,
		`fed_jobs_registered 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestJobTelemetryOffByDefault: without a hub, jobs run exactly as before
// — no store, no events file.
func TestJobTelemetryOffByDefault(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	if _, err := m.Submit(testSpec("plain", 2)); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "plain", Done, 30*time.Second)
	if _, err := os.Stat(filepath.Join(m.Dir(), "plain", "events.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("events.jsonl should not exist without telemetry, stat err=%v", err)
	}
}
