// Round-contract tests for the decorators: a chaos round that runs the
// wrapped executor several times must still record every reporting device,
// and a decorator stack must be invisible to the model, the round records
// and the trace — whatever order the stack and the recorder were installed
// in — because every switch travels in the RoundSpec it hands through.
package chaos_test

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/simnet"
	"fedproxvr/internal/trace"
)

// recordKeeper is an engine.StatsRecorder that keeps a deep copy of every
// record.
type recordKeeper struct{ rounds []obs.RoundStats }

func (k *recordKeeper) RecordRound(rs *obs.RoundStats) {
	cp := *rs
	cp.Clients = append([]obs.ClientStat(nil), rs.Clients...)
	k.rounds = append(k.rounds, cp)
}

// backends builds each in-process executor over fresh devices; the cleanup
// stops Parallel's pool.
var backends = map[string]func(t *testing.T, devices []*engine.Device, cfg engine.Config) engine.Executor{
	"sequential": func(_ *testing.T, devices []*engine.Device, cfg engine.Config) engine.Executor {
		return engine.NewSequential(devices, cfg.Local)
	},
	"parallel": func(t *testing.T, devices []*engine.Device, cfg engine.Config) engine.Executor {
		par := engine.NewParallel(devices, cfg.Local)
		return par
	},
}

// TestChaosRoundKeepsEveryClientStat: in a round with scheduled events the
// decorator runs the wrapped executor once for the main fan-out and once
// per delayed device; the per-client stats of all those calls must survive
// into the one round record. Four devices, one crashed and one delayed:
// exactly the three that reported carry a ClientStat.
func TestChaosRoundKeepsEveryClientStat(t *testing.T) {
	p := testPartition(4, 20, 3, 3, 3)
	m := models.NewSoftmax(3, 3, 0)
	cfg := chaosConfig(2, 11)
	sched := &chaos.Schedule{Seed: 1, Events: []chaos.Event{
		{Device: 1, Round: 2, Kind: chaos.Delay, DelayMS: 1},
		{Device: 3, Round: 2, Kind: chaos.Crash},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, build := range backends {
		t.Run(name, func(t *testing.T) {
			inner := build(t, newDevices(p, m, cfg.Seed), cfg)
			eng, err := engine.New(cfg, m.Dim(), p.Weights(), chaos.NewExecutor(inner, sched))
			if err != nil {
				t.Fatal(err)
			}
			var keep recordKeeper
			eng.SetStats(&keep)
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(keep.rounds) != 2 {
				t.Fatalf("%d round records, want 2", len(keep.rounds))
			}
			if ids := clientIDs(keep.rounds[0]); !reflect.DeepEqual(ids, []int{0, 1, 2, 3}) {
				t.Fatalf("quiet round 1 recorded clients %v, want all four", ids)
			}
			rs := keep.rounds[1]
			if ids := clientIDs(rs); !reflect.DeepEqual(ids, []int{0, 1, 2}) {
				t.Fatalf("chaos round recorded clients %v, want [0 1 2] (main fan-out 0,2 + delayed 1; 3 crashed)", ids)
			}
			if rs.Participants != 3 || rs.Failed != 1 || rs.Stragglers != 0 {
				t.Fatalf("chaos round participants/failed/stragglers %d/%d/%d, want 3/1/0",
					rs.Participants, rs.Failed, rs.Stragglers)
			}
			if rs.GradEvals <= keep.rounds[0].GradEvals {
				t.Fatalf("GradEvals did not advance across the chaos round: %d then %d",
					keep.rounds[0].GradEvals, rs.GradEvals)
			}
		})
	}
}

func clientIDs(rs obs.RoundStats) []int {
	ids := make([]int, len(rs.Clients))
	for i, c := range rs.Clients {
		ids[i] = c.ID
	}
	sort.Ints(ids)
	return ids
}

// TestDecoratorTransparency runs every decorator stack over both in-process
// backends with stats and tracing on and a quorum policy configured, and
// demands what the bare backend produced: the same final model bit for bit,
// the same round records once wall-clock fields are zeroed, and the same
// number of per-client solve spans. Each stack is installed both before and
// after the recorder and tracer, which used to decide whether a decorator
// inherited them.
func TestDecoratorTransparency(t *testing.T) {
	const devices = 4
	p := testPartition(devices, 20, 3, 3, 5)
	m := models.NewSoftmax(3, 3, 0)
	fleet := simnet.NewUniformFleet(devices, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.1, Downlink: 0.05}, 9)
	empty := &chaos.Schedule{Seed: 1}

	stacks := []struct {
		name string
		wrap func(inner engine.Executor, tau int) engine.Executor
	}{
		{"bare", func(inner engine.Executor, _ int) engine.Executor { return inner }},
		{"chaos", func(inner engine.Executor, _ int) engine.Executor { return chaos.NewExecutor(inner, empty) }},
		{"timed", func(inner engine.Executor, tau int) engine.Executor {
			return simnet.NewTimedExecutor(inner, fleet, tau)
		}},
		{"timed(chaos)", func(inner engine.Executor, tau int) engine.Executor {
			return simnet.NewTimedExecutor(chaos.NewExecutor(inner, empty), fleet, tau)
		}},
	}
	// Sequential cuts deterministically (the first MinReport devices in
	// selection order report), so it runs a real cut; Parallel's cut set is
	// a wall-clock race, so its quorum equals the cohort: the cuttable
	// strategy runs, nothing is cut.
	quorum := map[string]int{"sequential": 2, "parallel": devices}

	type outcome struct {
		model       []float64
		rounds      []obs.RoundStats
		clientSpans int
	}
	run := func(t *testing.T, backend string, wrap func(engine.Executor, int) engine.Executor, statsFirst bool) outcome {
		t.Helper()
		cfg := chaosConfig(4, 21)
		cfg.MinReport = quorum[backend]
		inner := backends[backend](t, newDevices(p, m, cfg.Seed), cfg)
		eng, err := engine.New(cfg, m.Dim(), p.Weights(), inner)
		if err != nil {
			t.Fatal(err)
		}
		var keep recordKeeper
		tr := trace.New("test")
		if statsFirst {
			eng.SetStats(&keep)
			eng.SetTracer(tr)
		}
		eng.SetExecutor(wrap(eng.Executor(), cfg.Local.Tau))
		if !statsFirst {
			eng.SetStats(&keep)
			eng.SetTracer(tr)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := outcome{model: mathx.Clone(eng.Global()), rounds: keep.rounds}
		for _, sp := range tr.Spans() {
			if strings.HasPrefix(sp.Name, "client ") {
				out.clientSpans++
			}
		}
		for i := range out.rounds {
			zeroWallClock(&out.rounds[i])
		}
		return out
	}

	for backend := range backends {
		want := run(t, backend, stacks[0].wrap, true)
		if len(want.rounds) != 4 || want.clientSpans == 0 || want.rounds[3].GradEvals == 0 {
			t.Fatalf("%s reference is vacuous: %d records, %d client spans, %d grad evals",
				backend, len(want.rounds), want.clientSpans, want.rounds[3].GradEvals)
		}
		if backend == "sequential" && want.rounds[0].Stragglers != devices-quorum[backend] {
			t.Fatalf("sequential reference cut %d stragglers, want %d", want.rounds[0].Stragglers, devices-quorum[backend])
		}
		for _, st := range stacks {
			for _, statsFirst := range []bool{true, false} {
				name := backend + "/" + st.name + "/stats-after-executor"
				if statsFirst {
					name = backend + "/" + st.name + "/stats-before-executor"
				}
				t.Run(name, func(t *testing.T) {
					got := run(t, backend, st.wrap, statsFirst)
					assertModelEqual(t, name, got.model, want.model)
					if got.clientSpans != want.clientSpans {
						t.Fatalf("%d client solve spans, bare backend traced %d", got.clientSpans, want.clientSpans)
					}
					if len(got.rounds) != len(want.rounds) {
						t.Fatalf("%d round records, bare backend recorded %d", len(got.rounds), len(want.rounds))
					}
					for i := range want.rounds {
						if !reflect.DeepEqual(got.rounds[i], want.rounds[i]) {
							t.Fatalf("round %d record differs from the bare backend's:\n got %+v\nwant %+v",
								i+1, got.rounds[i], want.rounds[i])
						}
					}
				})
			}
		}
	}
}

// zeroWallClock clears the fields that legitimately differ between two runs
// of the same experiment: measured durations, and the simulated clock only
// the timed decorator stamps.
func zeroWallClock(rs *obs.RoundStats) {
	rs.SelectSeconds, rs.ExecSeconds, rs.AggSeconds, rs.EvalSeconds, rs.SimSeconds = 0, 0, 0, 0, 0
	rs.Eval = nil // a pointer; the model comparison covers what it measures
	for i := range rs.Clients {
		rs.Clients[i].Seconds, rs.Clients[i].SolveSeconds = 0, 0
	}
}
