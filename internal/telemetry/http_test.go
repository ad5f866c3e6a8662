package telemetry

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fedproxvr/internal/obs"
	"fedproxvr/internal/testx"
)

// seedSeries loads a hub with a deterministic two-round job for the API
// goldens: round 1 fully measured, round 2 bare accounting. With the
// stepping test clock, round 1 stamps at epoch+0s and round 2 at +2s.
func seedSeries(t *testing.T) *Hub {
	t.Helper()
	h := testHub(Options{Rules: RuleConfig{LossRisingK: 1}})
	js := h.Job("j1")
	js.SetTarget(20)
	js.RecordRound(roundStats(1, func(rs *obs.RoundStats) {
		rs.Eval = &obs.EvalStats{TrainLoss: 0.5, TestAcc: 0.9, GradNormSq: 0.01}
		rs.Clients = []obs.ClientStat{{ID: 0, Seconds: 0.01}}
	}))
	js.RecordRound(roundStats(2, nil))
	return h
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return resp.StatusCode, sb.String()
}

func TestSeriesEndpointGolden(t *testing.T) {
	srv := httptest.NewServer(seedSeries(t).Handler())
	defer srv.Close()
	code, body := get(t, srv, "/api/v1/jobs/j1/series")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want := `{"from":0,"job":"j1","samples":[` +
		`{"round":1,"at_unix_ms":1700000000000,"participants":4,"failed":0,"stragglers":0,"dropouts":0,"retries":0,"rejoins":0,"grad_evals":0,"bytes_sent":0,"bytes_recv":0,"select_seconds":0,"exec_seconds":0,"agg_seconds":0,"eval_seconds":0,"sim_seconds":null,"lat_p50":0.01,"lat_p90":0.01,"lat_p99":0.01,"train_loss":0.5,"test_acc":0.9,"grad_norm_sq":0.01,"drift_mean":null,"drift_max":null,"update_var":null,"update_norm":null,"non_finite":false},` +
		`{"round":2,"at_unix_ms":1700000002000,"participants":4,"failed":0,"stragglers":0,"dropouts":0,"retries":0,"rejoins":0,"grad_evals":0,"bytes_sent":0,"bytes_recv":0,"select_seconds":0,"exec_seconds":0,"agg_seconds":0,"eval_seconds":0,"sim_seconds":null,"lat_p50":null,"lat_p90":null,"lat_p99":null,"train_loss":null,"test_acc":null,"grad_norm_sq":null,"drift_mean":null,"drift_max":null,"update_var":null,"update_norm":null,"non_finite":false}` +
		`],"target_rounds":20,"to":0}` + "\n"
	if body != want {
		t.Fatalf("series body:\n got: %s\nwant: %s", body, want)
	}
	// Range query: only round 2.
	code, body = get(t, srv, "/api/v1/jobs/j1/series?from=2&to=2")
	if code != http.StatusOK || !strings.Contains(body, `"round":2`) || strings.Contains(body, `"round":1`) {
		t.Fatalf("range query: %d %s", code, body)
	}
	// Bad params and unknown jobs are client errors, not empty 200s.
	if code, _ = get(t, srv, "/api/v1/jobs/j1/series?from=x"); code != http.StatusBadRequest {
		t.Fatalf("bad from: status %d", code)
	}
	if code, _ = get(t, srv, "/api/v1/jobs/nope/series"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

func TestEventsEndpointGolden(t *testing.T) {
	h := seedSeries(t)
	// Round 3 rises the loss: LossRisingK=1 fires immediately. With the
	// stepping clock this is the 5th tick (+4s).
	h.Job("j1").RecordRound(roundStats(3, func(rs *obs.RoundStats) {
		rs.Eval = &obs.EvalStats{TrainLoss: 2, TestAcc: nan(), GradNormSq: nan()}
	}))
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/api/v1/jobs/j1/events")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want := `{"events":[` +
		`{"seq":0,"job":"j1","rule":"loss_rising","state":"firing","severity":"critical","round":3,"value":2,"threshold":1,` +
		`"message":"train loss rose 1 consecutive evals (now 2) — step size likely violates the convergence bound","at_unix_ms":1700000004000}` +
		`],"job":"j1"}` + "\n"
	if body != want {
		t.Fatalf("events body:\n got: %s\nwant: %s", body, want)
	}
	// Round-range filter excludes it.
	if _, body = get(t, srv, "/api/v1/jobs/j1/events?to=2"); !strings.Contains(body, `"events":[]`) {
		t.Fatalf("filtered events: %s", body)
	}
}

func TestJobsIndexEndpoint(t *testing.T) {
	srv := httptest.NewServer(seedSeries(t).Handler())
	defer srv.Close()
	code, body := get(t, srv, "/api/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{`"id":"j1"`, `"rounds":2`, `"last_round":2`, `"target_rounds":20`, `"active_alerts":[]`} {
		if !strings.Contains(body, want) {
			t.Fatalf("jobs index missing %s: %s", want, body)
		}
	}
}

func TestDashServed(t *testing.T) {
	srv := httptest.NewServer(seedSeries(t).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("dash: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	buf := make([]byte, len(dashHTML))
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "fedproxvr telemetry") {
		t.Fatal("dash body missing title")
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// TestLiveSSEOrdering runs a multi-round ingest against a live SSE client
// and asserts delivery order: hello first, the backlog, then each live
// round's sample strictly before the alert transitions that round caused.
func TestLiveSSEOrdering(t *testing.T) {
	h := testHub(Options{Rules: RuleConfig{LossRisingK: 1}})
	js := h.Job("j1")
	// Backlog: r1 measured, r2 rising → loss_rising fires at r2.
	js.RecordRound(roundStats(1, func(rs *obs.RoundStats) {
		rs.Eval = &obs.EvalStats{TrainLoss: 1, TestAcc: nan(), GradNormSq: nan()}
	}))
	js.RecordRound(roundStats(2, func(rs *obs.RoundStats) {
		rs.Eval = &obs.EvalStats{TrainLoss: 2, TestAcc: nan(), GradNormSq: nan()}
	}))

	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/j1/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		cur := sseEvent{}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				events <- cur
				cur = sseEvent{}
			}
		}
	}()

	next := func() sseEvent {
		select {
		case e, ok := <-events:
			if !ok {
				t.Fatal("SSE stream closed early")
			}
			return e
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for SSE event")
		}
		panic("unreachable")
	}

	// Backlog: hello, samples r1 r2, then the r2 alert.
	if e := next(); e.event != "hello" || !strings.Contains(e.data, `"job":"j1"`) {
		t.Fatalf("first event = %+v, want hello", e)
	}
	if e := next(); e.event != "sample" || !strings.Contains(e.data, `"round":1`) {
		t.Fatalf("want backlog sample r1, got %+v", e)
	}
	if e := next(); e.event != "sample" || !strings.Contains(e.data, `"round":2`) {
		t.Fatalf("want backlog sample r2, got %+v", e)
	}
	if e := next(); e.event != "alert" || !strings.Contains(e.data, `"state":"firing"`) {
		t.Fatalf("want backlog alert, got %+v", e)
	}

	// Wait for the handler's subscription, then ingest two live rounds:
	// r3 drops the loss (clears the alert), r4 rises it again (re-fires).
	waitSubscribed(t, js)
	js.RecordRound(roundStats(3, func(rs *obs.RoundStats) {
		rs.Eval = &obs.EvalStats{TrainLoss: 0.5, TestAcc: nan(), GradNormSq: nan()}
	}))
	js.RecordRound(roundStats(4, func(rs *obs.RoundStats) {
		rs.Eval = &obs.EvalStats{TrainLoss: 3, TestAcc: nan(), GradNormSq: nan()}
	}))

	if e := next(); e.event != "sample" || !strings.Contains(e.data, `"round":3`) {
		t.Fatalf("want live sample r3 first, got %+v", e)
	}
	if e := next(); e.event != "alert" || !strings.Contains(e.data, `"state":"cleared"`) || !strings.Contains(e.data, `"round":3`) {
		t.Fatalf("want r3 clear after its sample, got %+v", e)
	}
	if e := next(); e.event != "sample" || !strings.Contains(e.data, `"round":4`) {
		t.Fatalf("want live sample r4, got %+v", e)
	}
	if e := next(); e.event != "alert" || !strings.Contains(e.data, `"state":"firing"`) || !strings.Contains(e.data, `"round":4`) {
		t.Fatalf("want r4 fire after its sample, got %+v", e)
	}
}

// waitSubscribed blocks until the store has at least one SSE subscriber.
func waitSubscribed(t *testing.T, js *JobStore) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		js.mu.Lock()
		n := len(js.subs)
		js.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveSSESubscribersLeaveNoGoroutines connects /live clients that read
// the hello and hang up: each disconnect must end its handler and drop its
// store subscription, so neither goroutines nor subscribers accumulate.
func TestLiveSSESubscribersLeaveNoGoroutines(t *testing.T) {
	h := testHub(Options{})
	js := h.Job("j1")
	js.RecordRound(roundStats(1, nil))
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	client := srv.Client()
	subscribers := func() int {
		js.mu.Lock()
		defer js.mu.Unlock()
		return len(js.subs)
	}
	connect := func() {
		resp, err := client.Get(srv.URL + "/api/v1/jobs/j1/live")
		if err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		resp.Body.Close()
		if err != nil || line != "event: hello\n" {
			t.Fatalf("first line %q, %v; want the hello event", line, err)
		}
	}
	// The first connection starts the server's accept loop and the client's
	// transport; wait for its handler to go before counting.
	connect()
	for deadline := time.Now().Add(5 * time.Second); subscribers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first subscriber never left")
		}
	}
	client.CloseIdleConnections()
	testx.NoGoroutineGrowth(t, 20, 5*time.Second, connect)
	if n := subscribers(); n != 0 {
		t.Fatalf("%d subscriptions outlived their clients", n)
	}
}
