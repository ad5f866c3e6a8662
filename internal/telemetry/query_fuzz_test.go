package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"fedproxvr/internal/obs"
)

// FuzzSeriesQuery drives the /series and /events range queries with
// arbitrary from, to and limit strings. The query string is untrusted
// input, so the invariant is total: a parameter that is present and not an
// integer gets a 400, and otherwise the answer is a 200 whose every round
// is ≥ from, ≤ to when to > 0, with at most limit samples when limit > 0.
// The hub holds eight rounds whose alternating loss fires and clears
// loss_rising, so both endpoints have rounds to filter. `go test` replays
// the seeds; `make fuzz` explores from there.
func FuzzSeriesQuery(f *testing.F) {
	h := testHub(Options{Rules: RuleConfig{LossRisingK: 1}})
	js := h.Job("j1")
	for r := 1; r <= 8; r++ {
		loss := float64(r % 2)
		js.RecordRound(roundStats(r, func(rs *obs.RoundStats) {
			rs.Eval = &obs.EvalStats{TrainLoss: loss, TestAcc: 0.5, GradNormSq: 0.1}
		}))
	}
	if len(js.Events(0, 0)) == 0 {
		f.Fatal("the seeded job raised no alert events: /events would filter nothing")
	}
	handler := h.Handler()
	for _, seed := range [][3]string{
		{"", "", ""}, {"2", "5", "2"}, {"-3", "0", "-1"}, {"6", "3", "0"},
		{"x", "", ""}, {"", "1.5", ""}, {"", "", "9999999999999999999999"},
		{"+4", "-0", " 1"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	// parse reads a parameter the way the handler does: absent means 0.
	parse := func(v string) (int, bool) {
		if v == "" {
			return 0, true
		}
		n, err := strconv.Atoi(v)
		return n, err == nil
	}
	f.Fuzz(func(t *testing.T, from, to, limit string) {
		lo, fromOK := parse(from)
		hi, toOK := parse(to)
		max, limitOK := parse(limit)
		q := url.Values{"from": {from}, "to": {to}, "limit": {limit}}.Encode()
		for _, tc := range []struct {
			endpoint string
			ok       bool // /events takes no limit
		}{
			{"series", fromOK && toOK && limitOK},
			{"events", fromOK && toOK},
		} {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs/j1/"+tc.endpoint+"?"+q, nil))
			if !tc.ok {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("%s?%s: status %d, want 400", tc.endpoint, q, rec.Code)
				}
				continue
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s?%s: status %d, want 200: %s", tc.endpoint, q, rec.Code, rec.Body)
			}
			var body struct {
				Samples []struct{ Round int } `json:"samples"`
				Events  []struct{ Round int } `json:"events"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s?%s: %v", tc.endpoint, q, err)
			}
			for _, s := range append(body.Samples, body.Events...) {
				if s.Round < lo || (hi > 0 && s.Round > hi) {
					t.Fatalf("%s?%s: round %d outside [%d, %d]", tc.endpoint, q, s.Round, lo, hi)
				}
			}
			if max > 0 && len(body.Samples) > max {
				t.Fatalf("series?%s: %d samples, limit %d", q, len(body.Samples), max)
			}
		}
	})
}
