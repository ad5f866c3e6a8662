package engine_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
)

// newInProcessEngine builds the in-process run NewInProcess builds, with
// its evaluator.
func newInProcessEngine(t *testing.T, m models.Model, p *data.Partition, cfg engine.Config) (*engine.Engine, []*engine.Device) {
	t.Helper()
	eng, devices, err := engine.NewInProcess(m, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, devices
}

// stepRounds drives n rounds through Step, which measures nothing and so
// never hands a gradient over.
func stepRounds(t *testing.T, eng *engine.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func heldAny(devices []*engine.Device) bool {
	for _, d := range devices {
		if d.HeldV0() {
			return true
		}
	}
	return false
}

// handoverVariant is one in-process run configuration the hand-over is
// checked under; wrap, when set, decorates the engine's executor.
type handoverVariant struct {
	name string
	cfg  func(*engine.Config)
	wrap func(*engine.Engine)
}

// handoverVariants are every kind of cohort draw, a sparse evaluation
// cadence, fault injection and a quorum cut, on both in-process executors
// where the executor matters, over p's shards.
func handoverVariants(t *testing.T, p *data.Partition) []handoverVariant {
	t.Helper()
	sched := &chaos.Schedule{Seed: 5, Events: []chaos.Event{
		{Device: 1, Round: 2, Kind: chaos.Crash},
		{Device: 2, Round: 3, Kind: chaos.Delay, DelayMS: 1},
		{Device: 0, Round: 4, Kind: chaos.Corrupt, Scale: 0.1},
		{Device: 3, Round: 2, Kind: chaos.Partition, Until: 5},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	withChaos := func(eng *engine.Engine) { eng.SetExecutor(chaos.NewExecutor(eng.Executor(), sched)) }

	var variants []handoverVariant
	for _, parallel := range []bool{false, true} {
		backend := "Sequential"
		if parallel {
			backend = "Parallel"
		}
		for _, v := range []handoverVariant{
			{name: "full", cfg: func(*engine.Config) {}},
			{name: "fraction 0.3", cfg: func(c *engine.Config) { c.ClientFraction = 0.3 }},
			{name: "dropout 0.2", cfg: func(c *engine.Config) { c.DropoutProb = 0.2 }},
			{name: "activate 0.5", cfg: func(c *engine.Config) { c.ActivateProb = 0.5 }},
			{name: "eval every 3", cfg: func(c *engine.Config) { c.EvalEvery = 3 }},
		} {
			v.name = backend + "/" + v.name
			set := v.cfg
			v.cfg = func(c *engine.Config) { c.Parallel = parallel; set(c) }
			variants = append(variants, v)
		}
	}
	return append(variants,
		handoverVariant{name: "Parallel/chaos", cfg: func(c *engine.Config) { c.Parallel = true }, wrap: withChaos},
		handoverVariant{name: "Sequential/min-report", cfg: func(c *engine.Config) { c.MinReport = len(p.Clients) - 1 }},
	)
}

// TestHandoverInvisible pins the evaluation's gradient hand-over to the
// path without it: Run, whose measurements hand each device its next
// round's v⁰, ends on the same global model bits and gradient-evaluation
// count as a Step loop of the same config, which never hands over — under
// every handoverVariants configuration.
func TestHandoverInvisible(t *testing.T) {
	p := testPartition(7, 37, 5, 3, 3) // 37 rows: a shard is more than one chunk
	m := models.NewSoftmax(5, 3, 0.01)
	base := conformanceConfigs()["full"]
	base.Rounds = 7

	for _, v := range handoverVariants(t, p) {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.cfg(&cfg)
			run, devices := newInProcessEngine(t, m, p, cfg)
			step, _ := newInProcessEngine(t, m, p, cfg)
			if v.wrap != nil {
				v.wrap(run)
				v.wrap(step)
			}
			if _, err := run.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			stepRounds(t, step, cfg.Rounds)
			if !heldAny(devices) {
				t.Fatal("no device was handed a gradient: the test would pass vacuously")
			}
			if !sameVec(run.Global(), step.Global()) {
				t.Fatal("Run with hand-over and a Step loop end on different global models")
			}
			if run.GradEvals() != step.GradEvals() {
				t.Fatalf("GradEvals: Run %d, Step loop %d", run.GradEvals(), step.GradEvals())
			}
		})
	}
}

// runCheckingGap runs eng to the end and checks every evaluated point's
// ‖∇F̄‖² against the serial reference at the global model that point
// measured, which a round hook sees right after the measurement.
func runCheckingGap(t *testing.T, eng *engine.Engine) *metrics.Series {
	t.Helper()
	ref := eng.Evaluator()
	want := map[int]float64{0: ref.SerialGradNormSq(eng.Global())}
	eng.OnRound(func(info engine.RoundInfo) error {
		want[info.Round] = ref.SerialGradNormSq(info.Global)
		return nil
	})
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range s.Points {
		if w := want[pt.Round]; math.Float64bits(pt.GradNormSq) != math.Float64bits(w) || !(w > 0) {
			t.Fatalf("round %d: GradNormSq = %v, serial reference %v", pt.Round, pt.GradNormSq, w)
		}
	}
	return s
}

// TestHandoverGapMatchesSerial: under every handoverVariants configuration
// each evaluated point of a Run carries the gap the serial reference
// measures at that round's global model, bit for bit — including devices
// outside the next cohort, whose gradients the fold needs all the same.
func TestHandoverGapMatchesSerial(t *testing.T) {
	p := testPartition(7, 37, 5, 3, 3)
	m := models.NewSoftmax(5, 3, 0.01)
	base := conformanceConfigs()["full"]
	base.Rounds = 7
	for _, v := range handoverVariants(t, p) {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.cfg(&cfg)
			eng, _ := newInProcessEngine(t, m, p, cfg)
			if v.wrap != nil {
				v.wrap(eng)
			}
			runCheckingGap(t, eng)
		})
	}
}

// TestHandoverDroppedOnReanchor stops a run right after an evaluation
// handed round 3's cohort its v⁰ at w̄², re-anchors the engine — a new
// global model, or the round counter rewound so round 3 runs from another
// model — and steps on. The result must equal the same sequence driven by
// Step alone: a stale gradient that survived SetGlobal or Resume would
// seed round 3's solves at the wrong point.
func TestHandoverDroppedOnReanchor(t *testing.T) {
	p := testPartition(5, 40, 4, 3, 9)
	m := models.NewSoftmax(4, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 6
	reanchors := []struct {
		name string
		do   func(*engine.Engine)
	}{
		{"SetGlobal", func(eng *engine.Engine) {
			w := mathx.Clone(eng.Global())
			mathx.Scal(0.5, w)
			eng.SetGlobal(w)
		}},
		{"Resume", func(eng *engine.Engine) { eng.Resume(1, nil) }},
	}
	stop := errors.New("stop after round 2")
	for _, parallel := range []bool{false, true} {
		for _, ra := range reanchors {
			name := ra.name + "/Sequential"
			if parallel {
				name = ra.name + "/Parallel"
			}
			t.Run(name, func(t *testing.T) {
				c := cfg
				c.Parallel = parallel
				run, devices := newInProcessEngine(t, m, p, c)
				run.OnRound(func(info engine.RoundInfo) error {
					if info.Round == 2 {
						return stop
					}
					return nil
				})
				if _, err := run.Run(context.Background()); !errors.Is(err, stop) {
					t.Fatalf("Run: %v, want the hook's stop", err)
				}
				if !heldAny(devices) {
					t.Fatal("no device was handed a gradient: the test would pass vacuously")
				}
				ra.do(run)
				stepRounds(t, run, 2)

				ref, _ := newInProcessEngine(t, m, p, c)
				stepRounds(t, ref, 2)
				ra.do(ref)
				stepRounds(t, ref, 2)
				if !sameVec(run.Global(), ref.Global()) {
					t.Fatalf("after %s a handed-over gradient leaked into the next round", ra.name)
				}
			})
		}
	}
}

// TestHandoverUnderQuorumCuts runs the hand-over where solves outlive their
// round: a Parallel quorum leaves cut devices solving while the engine
// measures — and hands gradients to — the next cohort, and SetGlobal drops
// hand-overs while late solves may still be reading theirs. The cut set
// depends on timing, so there is no reference model to compare with; the
// race detector (make evalcpu, make race) is the check, plus the quorum's
// own accounting and the gap, which must match the serial reference at
// each round's model whichever devices were busy — their shards'
// gradients go to the evaluator's own buffers.
func TestHandoverUnderQuorumCuts(t *testing.T) {
	p := testPartition(6, 60, 5, 3, 4)
	m := models.NewSoftmax(5, 3, 0)
	cfg := conformanceConfigs()["full"]
	cfg.Parallel = true
	cfg.MinReport = 2
	cfg.Rounds = 12
	eng, devices := newInProcessEngine(t, m, p, cfg)
	s := runCheckingGap(t, eng)
	for _, pt := range s.Points[1:] {
		if pt.Participants < cfg.MinReport || pt.Failed != 0 {
			t.Fatalf("round %d: %d participants, %d failed", pt.Round, pt.Participants, pt.Failed)
		}
	}
	if !heldAny(devices) {
		t.Fatal("no device was handed a gradient")
	}
	eng.SetGlobal(make([]float64, m.Dim()))
	stepRounds(t, eng, 2)
}
