package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/simnet"
)

// e2eFixture builds a small softmax classification engine; eta overrides
// the step size (a hostile value diverges the run).
func e2eFixture(t *testing.T, eta float64, rounds int) *engine.Engine {
	t.Helper()
	rng := randx.New(5)
	p := &data.Partition{Clients: make([]*data.Dataset, 4)}
	x := make([]float64, 3)
	for k := range p.Clients {
		ds := data.New(3, 3, 30)
		for i := 0; i < 30; i++ {
			c := (k + i) % 3
			randx.NormalVec(rng, x, float64(c)*2, 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	cfg := engine.FedProxVR(optim.SARAH, 5, 1, 0.1, 10, 8, rounds)
	cfg.Seed = 6
	if eta > 0 {
		cfg.Local.Eta = eta
	}
	r, _, err := engine.NewInProcess(models.NewSoftmax(3, 3), p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDivergentSimnetRunFlagsLossRising is the acceptance scenario end to
// end on the simnet backend: a hostile step size (far past the paper's
// Remark 3 bound) diverges training, and the telemetry pipeline — stats
// sink + aggregator probe + rules engine — must flag it: a loss_rising
// firing event lands in the JSONL log and fed_alert_total increments on
// the hub's exposition.
func TestDivergentSimnetRunFlagsLossRising(t *testing.T) {
	// eta=2 is far past the stable step size for this softmax fixture: the
	// loss climbs 3.57 → 5.2 → 9.08 → 19.9 over rounds 4–7 (deterministic
	// under the fixed seeds), three consecutive strict rises.
	// The run ends at round 7 with the alert still firing, so the
	// active-alert surfaces (Health, fed_alert_active) are asserted hot.
	eng := e2eFixture(t, 2, 7)
	h := testHub(Options{Rules: RuleConfig{LossRisingK: 3}})
	js := h.Job("divergent")
	var logBuf bytes.Buffer
	js.SetEventLog(&logBuf)
	js.SetTarget(7)
	eng.SetStats(js)
	Attach(eng, js)

	fleet := simnet.NewUniformFleet(4, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
	if _, err := simnet.Train(eng, fleet); err != nil {
		t.Fatal(err)
	}

	// The rule fired: event ring, JSONL mirror, and Prometheus counter all
	// agree.
	var fired bool
	for _, e := range js.Events(0, 0) {
		if e.Rule == RuleLossRising && e.State == "firing" {
			fired = true
		}
	}
	if !fired {
		s, _ := js.Latest()
		t.Fatalf("divergent run did not fire loss_rising; last sample %+v", s)
	}
	var jsonlFired bool
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL event line: %v", err)
		}
		if e.Rule == RuleLossRising && e.State == "firing" && e.Job == "divergent" {
			jsonlFired = true
		}
	}
	if !jsonlFired {
		t.Fatal("loss_rising firing event missing from the JSONL log")
	}
	var expo bytes.Buffer
	if err := h.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `fed_alert_total{job="divergent",rule="loss_rising"} 1`) {
		t.Fatalf("fed_alert_total not incremented:\n%s", expo.String())
	}
	// Health degrades while the alert is active.
	active, _ := js.Health()
	if len(active) == 0 {
		t.Fatal("active alerts empty while loss_rising is firing")
	}
	// The probe fed drift diagnostics into the samples.
	s, ok := js.Latest()
	if !ok || s.DriftMean <= 0 || s.UpdateNorm <= 0 {
		t.Fatalf("probe diagnostics missing from samples: %+v", s)
	}
}

// TestTrainingBitIdenticalWithTelemetry: attaching the full telemetry
// pipeline (stats sink + aggregator probe) must not change a single bit of
// the trained model — telemetry reads, never writes, and consumes no RNG.
func TestTrainingBitIdenticalWithTelemetry(t *testing.T) {
	run := func(withTelemetry bool) []float64 {
		eng := e2eFixture(t, 0, 10)
		if withTelemetry {
			h := testHub(Options{})
			js := h.Job("j")
			eng.SetStats(js)
			Attach(eng, js)
			if got := js.snapshot().ingested; got != 0 {
				t.Fatalf("pre-run ingest count %d", got)
			}
		}
		fleet := simnet.NewUniformFleet(4, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.5, Downlink: 0.5}, 7)
		if _, err := simnet.Train(eng, fleet); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), eng.Global()...)
	}
	plain := run(false)
	instrumented := run(true)
	if len(plain) != len(instrumented) {
		t.Fatalf("model dims differ: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("coordinate %d differs: %v vs %v — telemetry perturbed training", i, plain[i], instrumented[i])
		}
	}
}
