package jobs

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fedproxvr/internal/checkpoint"
)

// testSpec is a small, fast job: synthetic data, 3 devices, few rounds.
func testSpec(id string, rounds int) Spec {
	return Spec{
		ID:      id,
		Dataset: "synthetic",
		Model:   "softmax",
		Alg:     "sarah",
		Devices: 3,
		Tau:     2,
		Batch:   8,
		Rounds:  rounds,
		Seed:    7,
	}
}

// directRun executes a spec's experiment in-process without the control
// plane — the bit-identity reference every recovery test compares against.
func directRun(t *testing.T, sp Spec) []float64 {
	t.Helper()
	sp = sp.withDefaults()
	r, err := sp.runner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Engine().Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), r.Global()...)
}

func openManager(t *testing.T, dir string, opt Options) *Manager {
	t.Helper()
	opt.Dir = dir
	m, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitState(t *testing.T, m *Manager, id string, want State, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() && want != st.State {
			t.Fatalf("job %s reached terminal %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s at round %d, want %s", id, st.State, st.Round, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobLifecycleAndBitIdentity(t *testing.T) {
	sp := testSpec("alpha", 6)
	want := directRun(t, sp)

	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, "alpha", Done, 30*time.Second)
	if st.Round != sp.Rounds {
		t.Fatalf("done at round %d, want %d", st.Round, sp.Rounds)
	}

	ck, err := m.store.LoadCheckpoint("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != sp.Rounds {
		t.Fatalf("checkpoint at round %d, want %d", ck.Round, sp.Rounds)
	}
	if !reflect.DeepEqual(ck.Global, want) {
		t.Fatal("control-plane run is not bit-identical to the direct run")
	}

	mf, err := m.store.LoadManifest("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if mf.State != Done {
		t.Fatalf("manifest state %s, want DONE", mf.State)
	}
	// The WAL-style history must show the full lifecycle.
	var seq []State
	for _, tr := range mf.History {
		seq = append(seq, tr.To)
	}
	wantSeq := []State{Pending, Running, Done}
	if !reflect.DeepEqual(seq, wantSeq) {
		t.Fatalf("history %v, want %v", seq, wantSeq)
	}
}

// TestRecoveryBoundaryKill: stop the manager between rounds (the graceful
// path records the yield), then simulate a hard crash by rewriting the
// manifest to RUNNING — as if the process was SIGKILLed before the yield
// transition landed. A fresh incarnation must adopt the job at its last
// checkpointed round and finish bit-identical to an uninterrupted run.
func TestRecoveryBoundaryKill(t *testing.T) {
	sp := testSpec("beta", 8)
	want := directRun(t, sp)
	dir := t.TempDir()

	m1 := openManager(t, dir, Options{})
	if _, err := m1.Submit(sp); err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then stop mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := m1.Get("beta")
		if st.Round >= 2 || st.State == Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1.Stop()

	mf, err := m1.store.LoadManifest("beta")
	if err != nil {
		t.Fatal(err)
	}
	if mf.State == Done {
		t.Skip("job finished before the stop landed; nothing to recover")
	}
	if mf.State != Pending {
		t.Fatalf("graceful stop left state %s, want PENDING", mf.State)
	}
	killedAt := mf.Round

	// Harden the scenario: pretend the yield never committed (SIGKILL
	// between rounds). Recovery must treat RUNNING as interrupted.
	mf.State = Running
	if err := m1.store.SaveManifest(mf); err != nil {
		t.Fatal(err)
	}

	m2 := openManager(t, dir, Options{})
	defer m2.Stop()
	if m2.Epoch() != m1.Epoch()+1 {
		t.Fatalf("epoch %d after restart, want %d", m2.Epoch(), m1.Epoch()+1)
	}
	waitState(t, m2, "beta", Done, 30*time.Second)

	ck, err := m2.store.LoadCheckpoint("beta")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.Global, want) {
		t.Fatalf("recovered run (killed at round %d) is not bit-identical to the uninterrupted run", killedAt)
	}
	// The restored metric series must cover the whole run, not just the
	// post-recovery suffix.
	if len(ck.Points) == 0 {
		t.Fatal("recovered checkpoint lost the metric history")
	}
}

// TestRecoveryMidRoundKill: a crash mid-round loses the uncommitted round.
// Recovery re-runs it from the previous boundary with identical round-keyed
// draws, so the final model is still bit-identical — the aborted attempt is
// indistinguishable from a scripted full-cohort dropout of that round.
func TestRecoveryMidRoundKill(t *testing.T) {
	sp := testSpec("gamma", 8)
	want := directRun(t, sp)
	dir := t.TempDir()

	m1 := openManager(t, dir, Options{})
	if _, err := m1.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, "gamma", Done, 30*time.Second)
	m1.Stop()

	// Reconstruct the mid-round-crash state from the completed run's
	// artifacts: checkpoint as of round k (the in-flight round k+1 never
	// committed anything), manifest still RUNNING at k.
	ckPath := m1.store.CheckpointPath("gamma")
	full, err := checkpoint.Load(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	trunc := &checkpoint.State{Name: full.Name, Round: k, Seed: full.Seed}
	// Re-derive the round-k model by replaying the prefix directly.
	pre := sp
	pre.Rounds = k
	trunc.Global = directRun(t, pre)
	if err := checkpoint.Save(ckPath, trunc); err != nil {
		t.Fatal(err)
	}
	os.Remove(ckPath + ".prev")
	if err := m1.store.SaveManifest(&Manifest{
		ID: "gamma", State: Running, Epoch: m1.Epoch(), Round: k,
	}); err != nil {
		t.Fatal(err)
	}

	m2 := openManager(t, dir, Options{})
	defer m2.Stop()
	waitState(t, m2, "gamma", Done, 30*time.Second)
	ck, err := m2.store.LoadCheckpoint("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.Global, want) {
		t.Fatal("mid-round-kill recovery is not bit-identical to the uninterrupted run")
	}
}

func TestCancel(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	sp := testSpec("slow", 5000)
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("slow"); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Get("slow")
	if st.State != Cancelled {
		t.Fatalf("state %s after cancel, want CANCELLED", st.State)
	}
	if err := m.Cancel("slow"); err != nil {
		t.Fatalf("cancelling a terminal job must be a no-op, got %v", err)
	}
	if err := m.Cancel("ghost"); err == nil {
		t.Fatal("cancelling an unknown job must error")
	}
}

func TestSaturation(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Stop()
	if _, err := m.Submit(testSpec("one", 5000)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(testSpec("two", 5))
	if err == nil || !strings.Contains(err.Error(), "saturated") {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	// Terminal jobs free capacity.
	if err := m.Cancel("one"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec("two", 2)); err != nil {
		t.Fatalf("submit after cancel must succeed, got %v", err)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := st.CheckpointPath("j")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(path, &checkpoint.State{Name: "j", Round: 1, Global: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.RotateCheckpoint("j"); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(path, &checkpoint.State{Name: "j", Round: 2, Global: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the newest checkpoint.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadCheckpoint("j")
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if got.Round != 1 {
		t.Fatalf("fell back to round %d, want 1 (the intact predecessor)", got.Round)
	}
}

func TestQuorumGate(t *testing.T) {
	inner := &recordingAgg{}
	q := &quorumGate{inner: inner, min: 2}
	w := []float64{1, 2}
	if err := q.Aggregate(w, []int{0}, [][]float64{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 0 {
		t.Fatal("below-quorum round must skip the fold")
	}
	if !reflect.DeepEqual(w, []float64{1, 2}) {
		t.Fatal("below-quorum round must leave the model unchanged")
	}
	if err := q.Aggregate(w, []int{0, 1}, [][]float64{{9, 9}, {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatal("at-quorum round must delegate to the inner aggregator")
	}
}

type recordingAgg struct{ calls int }

func (r *recordingAgg) Aggregate(w []float64, selected []int, locals [][]float64) error {
	r.calls++
	return nil
}

func TestHTTPAPI(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 2})
	defer m.Stop()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Submit.
	resp := post(`{"id":"h1","rounds":5000,"devices":3,"tau":2,"batch":8}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: %d, want 201", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != "h1" || st.State != Pending {
		t.Fatalf("created %+v", st)
	}

	// Bad spec.
	if resp := post(`{"rounds":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Duplicate.
	if resp := post(`{"id":"h1","rounds":3}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Saturation: second live job fills the fleet, third is turned away.
	if resp := post(`{"id":"h2","rounds":5000}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("h2: %d, want 201", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp = post(`{"id":"h3","rounds":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
	resp.Body.Close()

	// List.
	lresp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}

	// Cancel over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/h2", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d, want 200", dresp.StatusCode)
	}
	if st, _ := m.Get("h2"); st.State != Cancelled {
		t.Fatalf("h2 state %s after DELETE, want CANCELLED", st.State)
	}

	// Unknown job.
	gresp, err := http.Get(srv.URL + "/jobs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown: %d, want 404", gresp.StatusCode)
	}

	// Per-job healthz.
	hresp, err := http.Get(srv.URL + "/jobs/h1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", hresp.StatusCode)
	}
}

// TestMultiJobSoak is the in-process multi-job chaos soak: three jobs (one
// with dropout injection) share one round slot, the manager is stopped and
// reopened mid-flight (epoch bump, RUNNING adoption), and every job must
// still finish bit-identical to its uninterrupted reference.
func TestMultiJobSoak(t *testing.T) {
	specs := []Spec{
		testSpec("soak-a", 10),
		testSpec("soak-b", 12),
		testSpec("soak-c", 8),
	}
	specs[1].Seed = 11
	specs[2].Seed = 23
	specs[2].DropoutProb = 0.3 // chaos: per-round report failures
	specs[2].ClientFraction = 0.7

	want := make(map[string][]float64)
	for _, sp := range specs {
		want[sp.ID] = directRun(t, sp)
	}

	dir := t.TempDir()
	m := openManager(t, dir, Options{Slots: 1, MaxJobs: 8})
	for _, sp := range specs {
		if _, err := m.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	// Let the fleet interleave, then restart the whole control plane.
	time.Sleep(50 * time.Millisecond)
	m.Stop()
	epoch1 := m.Epoch()

	m = openManager(t, dir, Options{Slots: 1, MaxJobs: 8})
	defer m.Stop()
	if m.Epoch() != epoch1+1 {
		t.Fatalf("epoch %d after reopen, want %d", m.Epoch(), epoch1+1)
	}
	for _, sp := range specs {
		waitState(t, m, sp.ID, Done, 60*time.Second)
	}
	for _, sp := range specs {
		ck, err := m.store.LoadCheckpoint(sp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ck.Global, want[sp.ID]) {
			t.Fatalf("job %s not bit-identical after restart soak", sp.ID)
		}
	}

	// The metrics endpoint must expose per-job gauges.
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{
		"fed_jobs_epoch", "fed_jobs_registered 3",
		`fed_jobs_state{state="DONE"} 3`,
		`fed_jobs_round{job="soak-a"} 10`,
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("metrics output missing %q:\n%s", needle, out)
		}
	}
}

// exitingRunners reads every goroutine's stack and fails t at once if a
// job runner is still inside its work. It returns how many runner
// goroutines (those created by launchLocked) are left, all of them past
// it: a runner whose runJob frame is on top of its stack, or directly under
// sync.(*WaitGroup).Done, is running its deferred wg.Done or returning,
// which Stop's Wait cannot wait out (under -race, Done's own
// instrumentation keeps the frame there after Wait returns), and one whose
// stack holds no runJob frame has returned and is exiting.
func exitingRunners(t *testing.T) int {
	t.Helper()
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	runners := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		var above string // the function line above the current one
		for i, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "created by fedproxvr/internal/jobs.(*Manager).launchLocked") {
				runners++
			}
			if i == 0 || strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "created by ") {
				continue
			}
			if strings.HasPrefix(line, "fedproxvr/internal/jobs.(*Manager).runJob(") &&
				above != "" && !strings.HasPrefix(above, "sync.(*WaitGroup).") {
				t.Fatalf("a job runner is still running after Stop returned:\n%s", g)
			}
			above = line
		}
	}
	return runners
}

// TestStopReopenLeavesNoGoroutines cycles a manager incarnation the way a
// coordinator restart does — Open, submit, a few rounds, Stop, then a new
// incarnation reopening the same directory and resuming the job until it
// is stopped too — and holds the process to the goroutine count it had
// before. Every runner leaves runJob by the time Stop returns, which is
// checked at once, and so is the count of every other goroutine. A
// runner's wg.Done still precedes its goroutine's exit, so only the
// runner goroutines already past runJob get a grace to finish exiting.
func TestStopReopenLeavesNoGoroutines(t *testing.T) {
	waitRound := func(m *Manager, id string, round int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Round >= round {
				return
			}
			if st.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s is %s at round %d, want round %d", id, st.State, st.Round, round)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cycle := func() {
		dir := t.TempDir()
		m := openManager(t, dir, Options{})
		if _, err := m.Submit(testSpec("leak", 5000)); err != nil {
			t.Fatal(err)
		}
		waitRound(m, "leak", 2)
		m.Stop()
		exitingRunners(t)
		m = openManager(t, dir, Options{})
		st, err := m.Get("leak")
		if err != nil {
			t.Fatal(err)
		}
		waitRound(m, "leak", st.Round+2)
		m.Stop()
		exitingRunners(t)
	}
	// settle polls until no runner goroutine is left, failing t after 5 s,
	// and fails t at once whenever the goroutines other than those runners
	// number more than limit. It returns the count once they are gone.
	settle := func(limit int) int {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runners := exitingRunners(t) // read before the count, so a runner exiting in between only lowers it
			others := runtime.NumGoroutine() - runners
			if others > limit {
				t.Fatalf("goroutines grew from %d to %d over 3 cycles", limit, others)
			}
			if runners == 0 {
				return others
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("%d job runner goroutines have not exited 5 s after Stop", runners)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cycle() // grows the process-wide helper pool
	before := settle(math.MaxInt)
	for i := 0; i < 3; i++ {
		cycle()
	}
	settle(before)
}
