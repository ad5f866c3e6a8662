package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
// and Validate. Any input must be accepted or rejected with an error —
// never panic.
func FuzzSpecSubmit(f *testing.F) {
	for _, body := range specSeedBodies() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, ok := submittedSpec(body)
		// Large fleets and image sets only make the run slow to build.
		if !ok || sp.Devices > 64 || sp.Samples > 64 {
			return
		}
		_ = sp.Validate()
	})
}

// specSeedBodies is FuzzSpecSubmit's seed corpus.
func specSeedBodies() []string {
	return append(append([]string(nil), badSpecBodies...),
		`{"id":"h1","rounds":5000,"devices":3,"tau":2,"batch":8}`,
		`{"rounds":3,"dataset":"fashion","model":"cnn","samples":2,"alg":"svrg"}`,
		`{"rounds":2,"tau":-1,"batch":0,"client_fraction":1.5,"dropout_prob":-0.5}`)
}

// submittedSpec decodes body the way POST /jobs does and applies the
// defaults Submit does.
func submittedSpec(body []byte) (Spec, bool) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&sp) != nil {
		return Spec{}, false
	}
	sp = sp.withDefaults()
	if sp.ID == "" {
		sp.ID = "fuzz"
	}
	return sp, true
}

// validateByBuilding is Validate as it was when it built the whole run —
// the spec's own checks, then a task and an engine, thrown away — and the
// oracle of TestValidateMatchesBuilding.
func validateByBuilding(s *Spec) error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("jobs: id %q must match %s", s.ID, idPattern)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("jobs: rounds must be ≥ 1, got %d", s.Rounds)
	}
	if s.Devices < 1 {
		return fmt.Errorf("jobs: devices must be ≥ 1, got %d", s.Devices)
	}
	if s.MinParticipants < 1 || s.MinParticipants > s.Devices {
		return fmt.Errorf("jobs: min_participants must be in [1,%d], got %d", s.Devices, s.MinParticipants)
	}
	if s.CheckpointEvery < 1 {
		return fmt.Errorf("jobs: checkpoint_every must be ≥ 1, got %d", s.CheckpointEvery)
	}
	_, err := s.runner()
	return err
}

// TestValidateMatchesBuilding: Validate, which generates no data, accepts
// and refuses exactly the specs that building their run does, over a table
// of good and bad specs, FuzzSpecSubmit's seeds, and image specs so small
// that the hold-out leaves some of them without a label (1 sample per
// class always, 2 or 3 for some seeds).
func TestValidateMatchesBuilding(t *testing.T) {
	bodies := append(specSeedBodies(),
		`{"rounds":1}`,
		`{"rounds":0}`,
		`{"rounds":-3}`,
		`{"id":"Bad ID","rounds":1}`,
		`{"id":"ok-1.a_b","rounds":1}`,
		`{"rounds":1,"devices":-1}`,
		`{"rounds":1,"devices":1}`,
		`{"rounds":1,"devices":2,"min_participants":3}`,
		`{"rounds":1,"devices":4,"min_participants":4}`,
		`{"rounds":1,"min_participants":-1}`,
		`{"rounds":1,"checkpoint_every":-1}`,
		`{"rounds":1,"dataset":"mnist"}`,
		`{"rounds":1,"model":"mlp"}`,
		`{"rounds":1,"dataset":"synthetic","model":"cnn"}`,
		`{"rounds":1,"dataset":"digits","model":"mlp"}`,
		`{"rounds":1,"alg":"adam"}`,
		`{"rounds":1,"beta":1e-300}`,
		`{"rounds":1,"beta":1e300}`,
		`{"rounds":1,"mu":-0.5}`,
		`{"rounds":1,"tau":-1}`,
		`{"rounds":1,"batch":-1}`,
		`{"rounds":1,"client_fraction":-0.1}`,
		`{"rounds":1,"client_fraction":0.5}`,
		`{"rounds":1,"dropout_prob":1}`,
		`{"rounds":1,"dropout_prob":0.99}`,
		`{"rounds":1,"dataset":"digits","samples":64}`,
		`{"rounds":1,"dataset":"fashion","model":"cnn","samples":-1}`,
	)
	for _, alg := range []string{"fedavg", "fedprox", "svrg", "sarah"} {
		for _, ds := range []string{"synthetic", "digits", "fashion"} {
			bodies = append(bodies, fmt.Sprintf(`{"rounds":2,"alg":%q,"dataset":%q,"samples":5}`, alg, ds))
		}
	}
	for _, model := range []string{"softmax", "cnn"} {
		for _, ds := range []string{"digits", "fashion"} {
			for samples := 1; samples <= 3; samples++ {
				for seed := 1; seed <= 8; seed++ {
					bodies = append(bodies, fmt.Sprintf(`{"rounds":1,"dataset":%q,"model":%q,"samples":%d,"seed":%d}`, ds, model, samples, seed))
				}
			}
		}
	}
	var accepted, refused int
	for _, body := range bodies {
		sp, ok := submittedSpec([]byte(body))
		if !ok {
			t.Fatalf("%s: not a submittable spec", body)
		}
		got, want := sp.Validate(), validateByBuilding(&sp)
		if (got == nil) != (want == nil) {
			t.Errorf("%s: Validate says %v, building the run says %v", body, got, want)
		}
		if want == nil {
			accepted++
		} else {
			refused++
		}
	}
	t.Logf("%d specs accepted, %d refused", accepted, refused)
	if accepted < 20 || refused < 20 {
		t.Fatalf("the table should hold plenty of both verdicts: %d accepted, %d refused", accepted, refused)
	}
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

// TestOverflowingStepFailsAtRun: the one refusal Validate leaves to the
// run. A β so large that βL overflows gives η = 0 only once the data's L
// is known, so Submit accepts the spec and the job fails, with the step
// size named, when it first runs.
func TestOverflowingStepFailsAtRun(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	st, err := m.Submit(Spec{ID: "huge-beta", Rounds: 1, Beta: math.MaxFloat64})
	if err != nil {
		t.Fatalf("Submit refused a β whose η only the data's L zeroes: %v", err)
	}
	st = waitState(t, m, st.ID, Failed, 10*time.Second)
	if !strings.Contains(st.Error, "step size") {
		t.Fatalf("the job failed with %q, want the step-size refusal", st.Error)
	}
}
