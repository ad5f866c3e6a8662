package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsExpositionGolden pins the full /metrics body for a registry fed
// two fixed rounds, so any accidental reordering, renaming, or format drift
// in the exposition shows up as a diff rather than a fuzzy Contains miss.
func TestMetricsExpositionGolden(t *testing.T) {
	var reg Registry
	reg.RecordRound(sampleRound(1))
	reg.RecordRound(sampleRound(2))
	srv := httptest.NewServer(NewAdminMux(&reg, AdminOptions{}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	// Sums are accumulated in the same order the registry sees them, so the
	// golden reproduces the float arithmetic exactly.
	phase := func(name string, secs float64) string {
		return fmt.Sprintf("fed_phase_seconds_total{phase=%q} %g\n", name, secs)
	}
	want := "# HELP fed_round Last completed federated round.\n# TYPE fed_round gauge\nfed_round 2\n" +
		"# HELP fed_participants Devices that reported in the last round.\n# TYPE fed_participants gauge\nfed_participants 3\n" +
		"# HELP fed_rounds_total Completed federated rounds.\n# TYPE fed_rounds_total counter\nfed_rounds_total 2\n" +
		"# HELP fed_failed_total Selected devices whose round failed.\n# TYPE fed_failed_total counter\nfed_failed_total 2\n" +
		"# HELP fed_stragglers_total Devices cut from a round by the straggler policy.\n# TYPE fed_stragglers_total counter\nfed_stragglers_total 0\n" +
		"# HELP fed_dropouts_total Devices removed by dropout injection.\n# TYPE fed_dropouts_total counter\nfed_dropouts_total 2\n" +
		"# HELP fed_retries_total Round-request retries after application-level worker errors.\n# TYPE fed_retries_total counter\nfed_retries_total 4\n" +
		"# HELP fed_rejoins_total Replacement worker connections adopted.\n# TYPE fed_rejoins_total counter\nfed_rejoins_total 2\n" +
		"# HELP fed_grad_evals_total Cumulative gradient evaluations across devices.\n# TYPE fed_grad_evals_total counter\nfed_grad_evals_total 200\n" +
		"# HELP fed_bytes_sent_total Bytes sent to workers by the TCP transport.\n# TYPE fed_bytes_sent_total counter\nfed_bytes_sent_total 100\n" +
		"# HELP fed_bytes_received_total Bytes received from workers by the TCP transport.\n# TYPE fed_bytes_received_total counter\nfed_bytes_received_total 140\n" +
		"# HELP fed_phase_seconds_total Wall-clock seconds per engine phase.\n# TYPE fed_phase_seconds_total counter\n" +
		phase("select", 0.001+0.001) +
		phase("execute", 0.01+0.01) +
		phase("aggregate", 0.002+0.002) +
		phase("evaluate", 0.005+0.005) +
		"# HELP fed_client_seconds Per-client round-trip latency.\n# TYPE fed_client_seconds histogram\n" +
		"fed_client_seconds_bucket{le=\"0.001\"} 0\n" +
		"fed_client_seconds_bucket{le=\"0.0025\"} 0\n" +
		"fed_client_seconds_bucket{le=\"0.005\"} 2\n" +
		"fed_client_seconds_bucket{le=\"0.01\"} 4\n" +
		"fed_client_seconds_bucket{le=\"0.025\"} 4\n" +
		"fed_client_seconds_bucket{le=\"0.05\"} 4\n" +
		"fed_client_seconds_bucket{le=\"0.1\"} 4\n" +
		"fed_client_seconds_bucket{le=\"0.25\"} 4\n" +
		"fed_client_seconds_bucket{le=\"0.5\"} 4\n" +
		"fed_client_seconds_bucket{le=\"1\"} 4\n" +
		"fed_client_seconds_bucket{le=\"2.5\"} 4\n" +
		"fed_client_seconds_bucket{le=\"5\"} 4\n" +
		"fed_client_seconds_bucket{le=\"10\"} 4\n" +
		"fed_client_seconds_bucket{le=\"+Inf\"} 4\n" +
		fmt.Sprintf("fed_client_seconds_sum %g\n", 0.004+0.006+0.004+0.006) +
		"fed_client_seconds_count 4\n"
	if body != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func TestHealthzFreshAndStale(t *testing.T) {
	var reg Registry
	now := time.Unix(1000, 0)
	reg.nowFn = func() time.Time { return now }
	srv := httptest.NewServer(NewAdminMux(&reg, AdminOptions{StaleAfter: 30 * time.Second}))
	defer srv.Close()

	// Before the first round: never stale, age is null.
	code, body := get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("pre-round status %d: %s", code, body)
	}
	if body != "{\"status\":\"ok\",\"round\":0,\"last_round_age_seconds\":null}\n" {
		t.Fatalf("pre-round body: %s", body)
	}

	reg.RecordRound(sampleRound(7))
	now = now.Add(5 * time.Second)
	code, body = get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("fresh status %d: %s", code, body)
	}
	if body != "{\"status\":\"ok\",\"round\":7,\"last_round_age_seconds\":5.000}\n" {
		t.Fatalf("fresh body: %s", body)
	}

	now = now.Add(60 * time.Second)
	code, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stale status %d: %s", code, body)
	}
	if body != "{\"status\":\"stale\",\"round\":7,\"last_round_age_seconds\":65.000}\n" {
		t.Fatalf("stale body: %s", body)
	}
	var doc struct {
		Status string   `json:"status"`
		Round  int      `json:"round"`
		Age    *float64 `json:"last_round_age_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz is not valid JSON: %v", err)
	}
	if doc.Status != "stale" || doc.Round != 7 || doc.Age == nil || *doc.Age != 65 {
		t.Fatalf("healthz decoded to %+v", doc)
	}
}

// TestHealthzStalenessDisabled checks the default AdminOptions never flip to
// stale, preserving the pre-staleness probe behavior.
func TestHealthzStalenessDisabled(t *testing.T) {
	var reg Registry
	now := time.Unix(1000, 0)
	reg.nowFn = func() time.Time { return now }
	srv := httptest.NewServer(NewAdminMux(&reg, AdminOptions{}))
	defer srv.Close()

	reg.RecordRound(sampleRound(1))
	now = now.Add(24 * time.Hour)
	code, body := get(t, srv, "/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("staleness should be off by default: %d %s", code, body)
	}
}

// TestAdminMuxWithoutRegistry: a nil registry (fedserver's jobs mode)
// contributes no series and no round. The scrape holds only the Extra
// expositors, still lint-clean, and /healthz reports only its status.
func TestAdminMuxWithoutRegistry(t *testing.T) {
	srv := httptest.NewServer(NewAdminMux(nil, AdminOptions{Extra: []MetricsWriter{RuntimeWriter{}}}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "fed_go_") {
		t.Fatalf("the Extra series are missing:\n%s", body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "fed_round") {
			t.Fatalf("a registry-less scrape serves %q", line)
		}
	}
	if problems := LintExposition(body); len(problems) > 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	code, body = get(t, srv, "/healthz")
	if code != 200 || body != "{\"status\":\"ok\"}\n" {
		t.Fatalf("/healthz: %d %s", code, body)
	}
}

func TestBuildz(t *testing.T) {
	var reg Registry
	srv := httptest.NewServer(NewAdminMux(&reg, AdminOptions{}))
	defer srv.Close()

	code, body := get(t, srv, "/buildz")
	if code != 200 {
		t.Fatalf("/buildz status %d: %s", code, body)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/buildz is not valid JSON: %v\n%s", err, body)
	}
	gv, _ := doc["go_version"].(string)
	// Test binaries always carry build info, so go_version must match the
	// running toolchain rather than the "unknown" fallback.
	if gv != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", gv, runtime.Version())
	}
}

func TestPprofRoutes(t *testing.T) {
	var reg Registry
	srv := httptest.NewServer(NewAdminMux(&reg, AdminOptions{}))
	defer srv.Close()

	if code, body := get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ index: %d %s", code, body)
	}
	if code, body := get(t, srv, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := get(t, srv, "/debug/pprof/symbol"); code != 200 {
		t.Fatalf("/debug/pprof/symbol: %d", code)
	}
}
