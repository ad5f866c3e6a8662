package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// badSpecBodies are submissions whose numbers are out of range for the
// shared run builders (clisetup.Config, clisetup.Task): a panic there
// would drop the connection instead of answering 400.
var badSpecBodies = []string{
	`{"rounds":1,"beta":-1}`,
	`{"rounds":1,"dataset":"digits","samples":-5}`,
}

// TestSubmitRejectsOutOfRangeNumbers: each bad body gets a 400 from the
// HTTP API, and the same spec handed to Submit directly is an error.
func TestSubmitRejectsOutOfRangeNumbers(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, body := range badSpecBodies {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: %d, want 400", body, resp.StatusCode)
		}
		var sp Spec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(sp); err == nil {
			t.Fatalf("Submit(%s) accepted the spec", body)
		}
	}
}

// FuzzSpecSubmit feeds arbitrary bytes through what a POST /jobs does
// before it touches the manager's state: the strict decode, the defaults
// and Validate, which builds the whole run. Any input must be accepted or
// rejected with an error — never panic.
func FuzzSpecSubmit(f *testing.F) {
	for _, body := range badSpecBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"id":"h1","rounds":5000,"devices":3,"tau":2,"batch":8}`))
	f.Add([]byte(`{"rounds":3,"dataset":"fashion","model":"cnn","samples":2,"alg":"svrg"}`))
	f.Add([]byte(`{"rounds":2,"tau":-1,"batch":0,"client_fraction":1.5,"dropout_prob":-0.5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var sp Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil {
			return
		}
		sp = sp.withDefaults()
		// Large fleets and image sets only make generation slow.
		if sp.Devices > 64 || sp.Samples > 64 {
			return
		}
		if sp.ID == "" {
			sp.ID = "fuzz"
		}
		_ = sp.Validate()
	})
}

// TestCNNSpecKeepsItsDevices: a CNN job for 20 devices with a quorum of 15
// runs on 20 devices, so a round in which they all report reaches the
// quorum and moves the global model. CNNTask once clamped it to 10
// devices, which Validate accepted and quorumGate then skipped in every
// round. A real round's local solves on the full-width CNN take seconds,
// so the job's aggregator gets the full cohort's reports directly.
func TestCNNSpecKeepsItsDevices(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"id":"cnn20","rounds":1,"dataset":"digits","model":"cnn","devices":20,"min_participants":15,"samples":4}`), &s); err != nil {
		t.Fatal(err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := s.runner()
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Devices())
	if n != 20 {
		t.Fatalf("the spec asks for 20 devices, its run has %d", n)
	}
	w := append([]float64(nil), r.Global()...)
	selected, locals := make([]int, n), make([][]float64, n)
	for i := range selected {
		selected[i] = i
		locals[i] = make([]float64, len(w))
		for j, v := range w {
			locals[i][j] = v + 1
		}
	}
	if err := r.Engine().Aggregator().Aggregate(w, selected, locals); err != nil {
		t.Fatal(err)
	}
	for i, v := range r.Global() {
		if w[i] != v {
			return
		}
	}
	t.Fatal("a round of all 20 devices with a quorum of 15 left the global model unchanged")
}
