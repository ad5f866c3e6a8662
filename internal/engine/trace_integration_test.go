// Trace-integration tests: with a tracer installed, a run must produce one
// complete span tree — run → round → phases + per-client solves — and the
// engine's fault annotations must land as events on the round spans.
package engine_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/trace"
)

// runTraced runs a short experiment with the given executor factory under a
// fresh tracer and returns it.
func runTraced(t *testing.T, cfg engine.Config, mk func([]*engine.Device) engine.Executor) *trace.Tracer {
	t.Helper()
	p := testPartition(4, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	exec := mk(newDevices(p, m, cfg.Seed))
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), exec)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("test")
	eng.SetTracer(tr)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEngineTraceHierarchy(t *testing.T) {
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 3

	for name, mk := range map[string]func([]*engine.Device) engine.Executor{
		"sequential": func(d []*engine.Device) engine.Executor { return engine.NewSequential(d, cfg.Local) },
		"parallel":   func(d []*engine.Device) engine.Executor { return engine.NewParallel(d, cfg.Local) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := runTraced(t, cfg, mk)
			spans := tr.Spans()
			byID := make(map[uint64]trace.Rec, len(spans))
			for _, sp := range spans {
				if sp.End < sp.Start {
					t.Fatalf("span %q left open: %+v", sp.Name, sp)
				}
				byID[sp.ID] = sp
			}

			var run trace.Rec
			roots := 0
			for _, sp := range spans {
				if sp.Parent == 0 {
					run = sp
					roots++
				}
			}
			if roots != 1 || run.Lane != "engine" {
				t.Fatalf("want exactly one root run span on the engine lane, got %d (%+v)", roots, run)
			}

			rounds := make(map[int]uint64)
			phases := make(map[int]map[string]int) // round → phase name → count
			clients := make(map[int]int)           // round → client-span count
			for _, sp := range spans {
				switch {
				case sp.Parent == run.ID && sp.Name == "round "+strconv.Itoa(sp.Round):
					rounds[sp.Round] = sp.ID
				case sp.Name == "select" || sp.Name == "execute" || sp.Name == "aggregate" || sp.Name == "evaluate":
					if p, ok := byID[sp.Parent]; !ok || (p.ID != run.ID && p.Name != "round "+strconv.Itoa(sp.Round)) {
						t.Fatalf("phase %q badly parented: %+v", sp.Name, sp)
					}
					if phases[sp.Round] == nil {
						phases[sp.Round] = make(map[string]int)
					}
					phases[sp.Round][sp.Name]++
				case strings.HasPrefix(sp.Name, "client ") && sp.Lane == sp.Name:
					if sp.Parent != rounds[sp.Round] {
						t.Fatalf("client span not under its round: %+v", sp)
					}
					clients[sp.Round]++
				}
			}
			if len(rounds) != cfg.Rounds {
				t.Fatalf("got %d round spans, want %d", len(rounds), cfg.Rounds)
			}
			for r := 1; r <= cfg.Rounds; r++ {
				for _, ph := range []string{"select", "execute", "aggregate", "evaluate"} {
					if phases[r][ph] != 1 {
						t.Fatalf("round %d: %d %q phases, want 1", r, phases[r][ph], ph)
					}
				}
				if clients[r] != 4 {
					t.Fatalf("round %d: %d client spans, want 4", r, clients[r])
				}
				// The round span must bracket its phases on the timeline.
				rs := byID[rounds[r]]
				for _, sp := range spans {
					if sp.Parent == rs.ID && (sp.Start < rs.Start || sp.End > rs.End) {
						t.Fatalf("round %d child %q outside its round span: %+v vs %+v", r, sp.Name, sp, rs)
					}
				}
			}
			// The round-0 evaluation runs before any round, under the run span.
			if phases[0]["evaluate"] != 1 {
				t.Fatalf("round-0 evaluate phases: %d, want 1", phases[0]["evaluate"])
			}
		})
	}
}

// TestEngineTraceDropoutEvents: dropout injection must annotate the round
// span with an event naming how many devices were dropped.
func TestEngineTraceDropoutEvents(t *testing.T) {
	cfg := conformanceConfigs()["partial"] // ClientFraction 0.5, DropoutProb 0.25
	cfg.Rounds = 12
	tr := runTraced(t, cfg, func(d []*engine.Device) engine.Executor {
		return engine.NewSequential(d, cfg.Local)
	})
	var drops int
	for _, ev := range tr.Events() {
		if ev.Name == "dropout" {
			if ev.Span == 0 || ev.Round == 0 || ev.Detail == "" {
				t.Fatalf("dropout event not anchored: %+v", ev)
			}
			drops++
		}
	}
	// Seed 7, 12 rounds at 25% dropout over 2-device cohorts: some round
	// drops a device (deterministic for the fixed seed).
	if drops == 0 {
		t.Fatal("no dropout events recorded over 12 rounds of 25% dropout")
	}
}

// TestEngineTracerOffIsUntraced: installing and removing a tracer must leave
// the engine runnable, and a nil tracer must record nothing.
func TestEngineTracerRemoval(t *testing.T) {
	cfg := conformanceConfigs()["full"]
	cfg.Rounds = 2
	p := testPartition(4, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(newDevices(p, m, cfg.Seed), cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("test")
	eng.SetTracer(tr)
	eng.SetTracer(nil)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("removed tracer still recorded %d spans", n)
	}
}
