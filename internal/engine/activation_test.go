// Regression tests for the config-validation sweep (explicit
// ClientFraction 0, ActivateProb bounds) and for all-dropped rounds: a
// round in which no device reports must leave the global model bitwise
// unchanged on every backend, fire hooks with an empty cohort, and never
// reach the aggregator with an empty fold.
package engine_test

import (
	"context"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/simnet"
	"fedproxvr/internal/transport"
)

// TestValidateRejectsExplicitClientFractionZero: the historical Validate
// accepted ClientFraction 0 — which SelectClients then treated as "sample
// one device" only because of its k<1 clamp, silently contradicting the
// zero-value default of full participation. An explicit 0 must now fail
// with an actionable message, while the unset zero value keeps defaulting
// to full participation through the engine constructor.
func TestValidateRejectsExplicitClientFractionZero(t *testing.T) {
	cfg := conformanceConfigs()["full"] // ClientFraction left at zero value
	err := cfg.Validate()
	if err == nil {
		t.Fatal("explicit ClientFraction 0 should fail validation")
	}
	if !strings.Contains(err.Error(), "ClientFraction") || !strings.Contains(err.Error(), "unset") {
		t.Fatalf("error should name the field and the unset-default remedy, got: %v", err)
	}

	// The engine constructor applies defaults first: the same zero-value
	// config builds and runs with full participation.
	p := testPartition(3, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatalf("zero-value ClientFraction must default to full participation, got: %v", err)
	}
	sel, _, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("defaulted config selected %d of 3 devices, want full participation", len(sel))
	}

	// Out-of-range fractions are rejected by the constructor too (defaults
	// only rewrite the zero value).
	bad := cfg
	bad.ClientFraction = 1.5
	if _, err := engine.New(bad, m.Dim(), p.Weights(), nil); err == nil {
		t.Fatal("ClientFraction > 1 should fail")
	}
	bad.ClientFraction = -0.5
	if _, err := engine.New(bad, m.Dim(), p.Weights(), nil); err == nil {
		t.Fatal("negative ClientFraction should fail")
	}
}

// TestValidateActivateProbBounds: ActivateProb outside [0,1] and the
// ambiguous combination with partial deterministic sampling must fail.
func TestValidateActivateProbBounds(t *testing.T) {
	base := conformanceConfigs()["full"]
	base.ClientFraction = 1 // direct Validate skips the defaulting pass

	bad := base
	bad.ActivateProb = 1.2
	if err := bad.Validate(); err == nil {
		t.Fatal("ActivateProb > 1 should fail validation")
	}
	bad.ActivateProb = -0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative ActivateProb should fail validation")
	}
	bad.ActivateProb = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN ActivateProb should fail validation")
	}
	bad = base
	bad.ClientFraction = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN ClientFraction should fail validation")
	}
	both := base
	both.ActivateProb = 0.5
	both.ClientFraction = 0.5
	if err := both.Validate(); err == nil {
		t.Fatal("ActivateProb with partial ClientFraction should fail validation")
	}
	ok := base
	ok.ActivateProb = 0.5
	if err := ok.Validate(); err != nil {
		t.Fatalf("ActivateProb 0.5 with full ClientFraction should validate, got: %v", err)
	}
}

// TestActivationDeterminism: the activation draw is a pure function of
// (seed, round, id) — recomputing the cohort must give the same set, and
// the uniform must actually vary across rounds and devices.
func TestActivationDeterminism(t *testing.T) {
	a := engine.ActivatedClients(13, 4, 100, 0.6, nil)
	b := engine.ActivatedClients(13, 4, 100, 0.6, nil)
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("p=0.6 over 100 devices activated %d — want a proper subset", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recomputed cohort differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if u := randx.ActivationUniform(13, 4, 7); u < 0 || u >= 1 {
		t.Fatalf("activation uniform %v outside [0,1)", u)
	}
	if randx.ActivationUniform(13, 4, 7) == randx.ActivationUniform(13, 5, 7) &&
		randx.ActivationUniform(13, 4, 7) == randx.ActivationUniform(13, 4, 8) {
		t.Fatal("activation uniform ignores round and id")
	}
	if got := engine.ActivatedClients(13, 1, 5, 1, nil); len(got) != 5 {
		t.Fatalf("p=1 activated %d of 5", len(got))
	}
}

// TestAllDroppedRound: with DropoutProb at the largest probability below 1
// (Validate excludes 1 itself), every selected device drops before the
// fan-out — a survival would need the server stream to draw ≥ 1-ulp. On
// every backend the run must complete without error, leave the global
// model bitwise at its initialization, and fire hooks with empty
// Participants each round.
func TestAllDroppedRound(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 9)
	m := models.NewSoftmax(3, 3)
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 3
	cfg.DropoutProb = math.Nextafter(1, 0)
	fleet := simnet.NewUniformFleet(3, simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.1, Downlink: 0.1}, 5)

	w0 := make([]float64, m.Dim())
	rng := randx.NewStream(99, 0)
	randx.NormalVec(rng, w0, 0, 1)

	check := func(t *testing.T, eng *engine.Engine) {
		eng.SetGlobal(w0)
		rounds := 0
		eng.OnRound(func(info engine.RoundInfo) error {
			rounds++
			if len(info.Participants) != 0 {
				t.Errorf("round %d: %d participants, want 0 (everyone dropped)", info.Round, len(info.Participants))
			}
			return nil
		})
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatalf("all-dropped run must not error: %v", err)
		}
		if rounds != cfg.Rounds {
			t.Fatalf("hooks fired %d times, want %d", rounds, cfg.Rounds)
		}
		got := eng.Global()
		for i := range w0 {
			if got[i] != w0[i] {
				t.Fatalf("global model moved at %d: %v vs %v", i, got[i], w0[i])
			}
		}
	}

	backends := map[string]func([]*engine.Device) engine.Executor{
		"sequential": func(d []*engine.Device) engine.Executor { return engine.NewSequential(d, cfg.Local) },
		"parallel":   func(d []*engine.Device) engine.Executor { return engine.NewParallel(d, cfg.Local) },
		"timed": func(d []*engine.Device) engine.Executor {
			return simnet.NewTimedExecutor(engine.NewSequential(d, cfg.Local), fleet, cfg.Local.Tau)
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			exec := mk(newDevices(p, m, cfg.Seed))
			eng, err := engine.New(cfg, m.Dim(), p.Weights(), exec)
			if err != nil {
				t.Fatal(err)
			}
			check(t, eng)
		})
	}

	t.Run("tcp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		var wg sync.WaitGroup
		for k := 0; k < len(p.Clients); k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				w, err := transport.NewWorker(addr, k, p.Clients[k], m, cfg.Seed)
				if err != nil {
					t.Errorf("worker %d: %v", k, err)
					return
				}
				if err := w.Serve(); err != nil {
					t.Errorf("worker %d serve: %v", k, err)
				}
			}(k)
		}
		c, err := transport.NewCoordinatorOn(ln, len(p.Clients), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		eng, err := engine.New(cfg, m.Dim(), c.Weights(), c.Executor(cfg.Local))
		if err != nil {
			t.Fatal(err)
		}
		check(t, eng)
		c.Shutdown()
		wg.Wait()
	})

	// A round that comes back EMPTY despite the fan-out running exercises
	// the other no-participant path: two of three workers flake the final
	// round with retries off, the survivor count falls below the quorum, and
	// the coordinator discards the round — every local is nil, the fold is
	// skipped, and the model stays bitwise put.
	t.Run("tcp-quorum-skip", func(t *testing.T) {
		fcfg := conformanceConfigs()["full"]
		fcfg.Rounds = 3
		flakeRound := fcfg.Rounds // last round: the torn-down flakers never rejoin
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		var wg sync.WaitGroup
		for k := 0; k < len(p.Clients); k++ {
			wg.Add(1)
			if k == 0 { // worker 0 never flakes — it is the sub-quorum survivor
				go func(k int) {
					defer wg.Done()
					w, err := transport.NewWorker(addr, k, p.Clients[k], m, fcfg.Seed)
					if err != nil {
						t.Errorf("worker %d: %v", k, err)
						return
					}
					if err := w.Serve(); err != nil {
						t.Errorf("worker %d serve: %v", k, err)
					}
				}(k)
				continue
			}
			w := newFlakyWorker(t, addr, k, p.Clients[k], m, fcfg.Seed, flakeRound)
			go func(k int) {
				defer wg.Done()
				// Torn down after its flake and never rejoining, the flaker
				// sees its connection closed before Done.
				if err := w.Serve(); err == nil || !strings.Contains(err.Error(), "before Done") {
					t.Errorf("worker %d, torn down after its flake, served to %v", k, err)
				}
			}(k)
		}
		c, err := transport.NewCoordinatorOn(ln, len(p.Clients), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Retries off: the flakes stand, one reporter < quorum 2 → the round
		// is skipped (one skip, within the MaxFailedRounds tolerance).
		c.SetFaultPolicy(transport.FaultPolicy{MaxRetries: 0, MinParticipants: 2, MaxFailedRounds: 3})
		eng, err := engine.New(fcfg, m.Dim(), c.Weights(), c.Executor(fcfg.Local))
		if err != nil {
			t.Fatal(err)
		}
		eng.SetGlobal(w0)
		var before, after []float64
		eng.OnRound(func(info engine.RoundInfo) error {
			switch info.Round {
			case flakeRound - 1:
				before = mathx.Clone(info.Global)
			case flakeRound:
				if len(info.Participants) != 0 {
					t.Errorf("skipped round: %d participants, want 0", len(info.Participants))
				}
				after = mathx.Clone(info.Global)
			}
			return nil
		})
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatalf("a sub-quorum round must not abort the run: %v", err)
		}
		c.Shutdown()
		wg.Wait()
		if before == nil || after == nil {
			t.Fatal("hooks missed the rounds around the skip")
		}
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("skipped round moved the model at %d: %v vs %v", i, after[i], before[i])
			}
		}
	})
}
