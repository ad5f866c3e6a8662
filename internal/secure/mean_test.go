package secure_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/secure"
)

// partition builds `devices` shards of perDevice samples around class
// means 0, 1, 2 over three features.
func partition(devices, perDevice int, seed int64) *data.Partition {
	p := &data.Partition{Clients: make([]*data.Dataset, devices)}
	for k := range p.Clients {
		rng := randx.NewStream(seed, int64(k))
		ds := data.New(3, 3, perDevice)
		x := make([]float64, 3)
		for i := 0; i < perDevice; i++ {
			c := (k + i) % 3
			randx.NormalVec(rng, x, float64(c), 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	return p
}

func config(seed int64) engine.Config {
	return engine.Config{
		Local:  optim.LocalConfig{Estimator: optim.SARAH, Eta: 1.0 / 6, Tau: 5, Batch: 4, Mu: 0.2, Return: optim.ReturnLast},
		Rounds: 6,
		Seed:   seed,
	}
}

// newEngine builds a sequential in-process engine over p, aggregating
// through secure.NewMean when masked.
func newEngine(t *testing.T, cfg engine.Config, p *data.Partition, masked bool) *engine.Engine {
	t.Helper()
	m := models.NewSoftmax(3, 3)
	devices := make([]*engine.Device, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
	}
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(devices, cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	if masked {
		eng.SetAggregator(secure.NewMean(p.Weights(), m.Dim(), cfg.Seed))
	}
	return eng
}

// TestSecureAggregationEndToEnd trains through the engine with the
// pairwise-masking aggregator and checks the trajectory matches plain
// weighted-mean training up to mask-cancellation rounding: the server never
// sees a model in the clear, yet learns the same global model.
func TestSecureAggregationEndToEnd(t *testing.T) {
	p := partition(4, 30, 2)
	cfg := config(42)
	run := func(masked bool) []float64 {
		eng := newEngine(t, cfg, p, masked)
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return mathx.Clone(eng.Global())
	}
	plain, sec := run(false), run(true)
	for i := range plain {
		if math.Abs(sec[i]-plain[i]) > 1e-6 {
			t.Fatalf("secure model differs at %d: %v vs %v", i, sec[i], plain[i])
		}
	}
	if mathx.Nrm2Sq(plain) == 0 {
		t.Fatal("training left the model at zero — the comparison is vacuous")
	}
}

// TestMeanRefusesRoundsThatLoseADevice: absent clients' masks cannot
// cancel, so a round that lost a device — to dropout injection or to a
// quorum cut — ends the run with the aggregator's error, and the global
// model stays at the previous round's.
func TestMeanRefusesRoundsThatLoseADevice(t *testing.T) {
	const devices = 4
	p := partition(devices, 30, 3)
	dropout := config(7)
	dropout.DropoutProb = 0.25
	quorum := config(7)
	quorum.MinReport = devices - 1
	for name, cfg := range map[string]engine.Config{"dropout": dropout, "quorum": quorum} {
		t.Run(name, func(t *testing.T) {
			// The cohort is a function of (seed, round), so a plain run
			// shows which round first loses a device.
			lossy := 0
			plain := newEngine(t, cfg, p, false)
			plain.OnRound(func(info engine.RoundInfo) error {
				if lossy == 0 && len(info.Participants) < devices {
					if len(info.Participants) == 0 {
						t.Fatalf("round %d lost every device: the aggregator is never asked", info.Round)
					}
					lossy = info.Round
				}
				return nil
			})
			if _, err := plain.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if lossy == 0 {
				t.Fatal("no round lost a device — the test is vacuous")
			}

			eng := newEngine(t, cfg, p, true)
			prev, last := mathx.Clone(eng.Global()), 0
			eng.OnRound(func(info engine.RoundInfo) error {
				copy(prev, info.Global)
				last = info.Round
				return nil
			})
			_, err := eng.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), "needs all 4 clients") {
				t.Fatalf("run returned %v, want the needs-all-clients refusal", err)
			}
			if last != lossy-1 {
				t.Fatalf("the masked run completed round %d, want %d (round %d lost a device)", last, lossy-1, lossy)
			}
			for i, v := range eng.Global() {
				if v != prev[i] {
					t.Fatalf("refused round moved the global model at %d: %v, was %v", i, v, prev[i])
				}
			}
		})
	}
}
