// simnet.Train drives Engine.Run. These tests pin it to the private round
// loop it used to run over Step, kept below as a reference: same timed
// series bit for bit, same round records once wall-clock fields are
// zeroed.
package engine_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/simnet"
)

// stepLoopTimedTrain is simnet.Train as a loop of its own over Step, which
// measured every measureEvery rounds outside Run and completed each
// round's record itself.
func stepLoopTimedTrain(eng *engine.Engine, fleet *simnet.Fleet, measureEvery int) (*simnet.TimedSeries, error) {
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	ev := eng.Evaluator()
	if ev == nil {
		return nil, fmt.Errorf("simnet: engine has no evaluator")
	}
	if len(fleet.Profiles) < len(ev.Clients) {
		return nil, fmt.Errorf("simnet: fleet has %d profiles for %d devices",
			len(fleet.Profiles), len(ev.Clients))
	}
	if measureEvery < 1 {
		measureEvery = 1
	}
	cfg := eng.Config()
	inner := eng.Executor()
	tx := simnet.NewTimedExecutor(inner, fleet, cfg.Local.Tau)
	eng.SetExecutor(tx)
	defer eng.SetExecutor(inner)
	out := &simnet.TimedSeries{Name: cfg.Name}
	measure := func(round, participants, failed int) {
		p := ev.Measure(eng.Global(), cfg.TrackStationarity, 0, nil)
		p.Round, p.GradEvals = round, eng.GradEvals()
		p.Participants, p.Failed = participants, failed
		if round > 0 {
			eng.StampEval(p)
		}
		out.Points = append(out.Points, simnet.TimedPoint{Time: tx.Now(), Point: p})
	}
	measure(0, 0, 0)
	for t := 1; t <= cfg.Rounds; t++ {
		sel, failed, err := eng.Step()
		if err != nil {
			eng.FlushStats(0)
			return out, err
		}
		var evalSec float64
		if t%measureEvery == 0 || t == cfg.Rounds {
			t0 := time.Now()
			measure(t, len(sel), failed-eng.Stragglers())
			evalSec = time.Since(t0).Seconds()
		}
		eng.FlushStats(evalSec)
	}
	return out, nil
}

func samePoint(a, b metrics.Point) bool {
	bits := math.Float64bits
	return a.Round == b.Round && a.GradEvals == b.GradEvals &&
		a.Participants == b.Participants && a.Failed == b.Failed &&
		bits(a.TrainLoss) == bits(b.TrainLoss) && bits(a.TestAcc) == bits(b.TestAcc) &&
		bits(a.GradNormSq) == bits(b.GradNormSq)
}

// untimed renders a round record without its wall-clock fields; %v prints
// every float so that it parses back to the same bits.
func untimed(rs obs.RoundStats) string {
	rs.SelectSeconds, rs.ExecSeconds, rs.AggSeconds, rs.EvalSeconds = 0, 0, 0, 0
	clients := append([]obs.ClientStat(nil), rs.Clients...)
	for i := range clients {
		clients[i].Seconds, clients[i].SolveSeconds = 0, 0
	}
	rs.Clients = nil
	eval := "nil"
	if rs.Eval != nil {
		eval = fmt.Sprintf("%+v", *rs.Eval)
		rs.Eval = nil
	}
	return fmt.Sprintf("%+v eval=%s clients=%+v", rs, eval, clients)
}

// TestTimedTrainMatchesStepLoop: for each executor, simnet.Train and the
// reference loop give the same timed series — every time exact, every
// point field bitwise — and the same round records.
func TestTimedTrainMatchesStepLoop(t *testing.T) {
	p := testPartition(6, 25, 4, 3, 4)
	m := models.NewSoftmax(4, 3, 0.01)
	// A fleet draws its stragglers from a stream of its own: each run gets
	// a fresh one.
	newFleet := func() *simnet.Fleet {
		f := simnet.NewHeterogeneousFleet(6, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.1, Downlink: 0.05}, 4, 3)
		f.StragglerFraction, f.StragglerFactor = 0.3, 5
		return f
	}
	base := conformanceConfigs()["partial"]
	base.Rounds = 6
	base.TrackStationarity = true

	sched := &chaos.Schedule{Seed: 5, Events: []chaos.Event{
		{Device: 1, Round: 2, Kind: chaos.Crash},
		{Device: 0, Round: 4, Kind: chaos.Corrupt, Scale: 0.1},
		{Device: 3, Round: 2, Kind: chaos.Partition, Until: 5},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	withChaos := func(eng *engine.Engine) { eng.SetExecutor(chaos.NewExecutor(eng.Executor(), sched)) }

	for _, v := range []struct {
		name string
		cfg  func(*engine.Config)
		wrap func(*engine.Engine)
	}{
		{name: "Sequential", cfg: func(*engine.Config) {}},
		{name: "Parallel", cfg: func(c *engine.Config) { c.Parallel = true }},
		{name: "Parallel/chaos", cfg: func(c *engine.Config) { c.Parallel = true }, wrap: withChaos},
		{name: "Sequential/min-report", cfg: func(c *engine.Config) {
			c.ClientFraction, c.DropoutProb, c.MinReport = 1, 0, len(p.Clients)-2
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.cfg(&cfg)
			var devices []*engine.Device
			train := func(f func(*engine.Engine) (*simnet.TimedSeries, error)) (*simnet.TimedSeries, []obs.RoundStats) {
				var eng *engine.Engine
				eng, devices = newInProcessEngine(t, m, p, cfg)
				if v.wrap != nil {
					v.wrap(eng)
				}
				rec := &captureStats{}
				eng.SetStats(rec)
				ts, err := f(eng)
				if err != nil {
					t.Fatal(err)
				}
				return ts, rec.records
			}
			got, gotRS := train(func(eng *engine.Engine) (*simnet.TimedSeries, error) { return simnet.Train(eng, newFleet()) })
			if !heldAny(devices) {
				t.Fatal("simnet.Train handed no device a gradient")
			}
			want, wantRS := train(func(eng *engine.Engine) (*simnet.TimedSeries, error) { return stepLoopTimedTrain(eng, newFleet(), 1) })

			if len(got.Points) != len(want.Points) || len(got.Points) != cfg.Rounds+1 {
				t.Fatalf("%d timed points, reference %d, want %d", len(got.Points), len(want.Points), cfg.Rounds+1)
			}
			for i, g := range got.Points {
				w := want.Points[i]
				if math.Float64bits(g.Time) != math.Float64bits(w.Time) || !samePoint(g.Point, w.Point) {
					t.Fatalf("point %d: got %+v, reference %+v", i, g, w)
				}
			}
			if len(gotRS) != len(wantRS) || len(gotRS) != cfg.Rounds {
				t.Fatalf("%d round records, reference %d, want %d", len(gotRS), len(wantRS), cfg.Rounds)
			}
			var failed, stragglers int
			for i := range gotRS {
				failed += gotRS[i].Failed
				stragglers += gotRS[i].Stragglers
				if g, w := untimed(gotRS[i]), untimed(wantRS[i]); g != w {
					t.Fatalf("round record %d:\n got %s\nwant %s", i+1, g, w)
				}
			}
			if (v.wrap != nil && failed == 0) || (cfg.MinReport > 0 && stragglers == 0) {
				t.Fatal("no device failed or was cut: the variant would pass vacuously")
			}
		})
	}
}
