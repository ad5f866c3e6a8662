// Chaos faults must show up in span traces as annotated instant events on
// the round span — one "chaos:<kind>" per injected fault, plus a
// "straggler-cut" when a delayed device misses the round deadline.
package chaos_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/trace"
)

func TestChaosTraceEvents(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 2)
	m := models.NewSoftmax(3, 3)
	cfg := chaosConfig(4, 7)
	cfg.RoundDeadline = 150 * time.Millisecond
	sched := &chaos.Schedule{
		Seed: 1,
		Events: []chaos.Event{
			{Device: 0, Round: 2, Kind: chaos.Crash},
			{Device: 2, Round: 3, Kind: chaos.Corrupt, Scale: 0.3},
			{Device: 1, Round: 4, Kind: chaos.Delay, DelayMS: 2000},
		},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	devices := newDevices(p, m, cfg.Seed)
	eng, err := engine.New(cfg, m.Dim(), p.Weights(),
		chaos.NewExecutor(engine.NewSequential(devices, cfg.Local), sched))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("test")
	eng.SetTracer(tr)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// name → round → count, keeping each event tied to its round span.
	got := make(map[string]map[int]int)
	for _, ev := range tr.Events() {
		if ev.Span == 0 {
			t.Fatalf("event not anchored to a span: %+v", ev)
		}
		if got[ev.Name] == nil {
			got[ev.Name] = make(map[int]int)
		}
		got[ev.Name][ev.Round]++
	}
	for name, round := range map[string]int{
		"chaos:crash":   2,
		"chaos:corrupt": 3,
		"chaos:delay":   4,
		"straggler-cut": 4, // the 2s delay decisively exceeds the 150ms deadline
	} {
		if got[name][round] == 0 {
			t.Fatalf("missing %q event in round %d; events: %+v", name, round, got)
		}
	}
	// The cut device must be named in one of round 4's straggler details.
	var named bool
	for _, ev := range tr.Events() {
		if ev.Name == "straggler-cut" && ev.Round == 4 && strings.Contains(ev.Detail, "device 1") {
			named = true
		}
	}
	if !named {
		t.Fatal("straggler-cut event does not name the delayed device")
	}
}
