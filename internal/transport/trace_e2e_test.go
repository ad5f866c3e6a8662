// End-to-end tracing over the wire: a traced TCP run must yield one
// coherent multi-process timeline — worker solve spans (with their
// anchor-grad and inner-loop children) parented under the coordinator's
// round spans — in both the in-memory span tree and the Chrome trace-event
// export, without perturbing training.
package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

func traceConfig(rounds int) engine.Config {
	return engine.Config{
		Local: optim.LocalConfig{
			Estimator: optim.SARAH,
			Eta:       1.0 / 6,
			Tau:       5,
			Batch:     4,
			Mu:        0.2,
			Return:    optim.ReturnLast,
		},
		Rounds: rounds,
		Seed:   42,
	}
}

// launchTracedWorkers starts one tracing worker per shard (enforcing
// scheds[id] where present) and returns the connected coordinator.
func launchTracedWorkers(t *testing.T, p *data.Partition, m models.Model, seed int64,
	scheds map[int]*chaos.Schedule) (*Coordinator, *sync.WaitGroup) {
	t.Helper()
	n := len(p.Clients)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w, err := NewWorker(addr, k, p.Clients[k], m, seed)
			if err == nil && scheds[k] != nil {
				err = w.SetChaos(scheds[k])
			}
			if err != nil {
				t.Errorf("worker %d: %v", k, err)
				return
			}
			w.EnableTrace()
			if err := w.Serve(); err != nil {
				t.Errorf("worker %d serve: %v", k, err)
			}
		}(k)
	}
	c, err := NewCoordinatorOn(ln, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, &wg
}

func TestTraceCrossProcessTimeline(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := traceConfig(3)

	// Untraced in-process reference: tracing must not perturb training.
	devices := make([]*engine.Device, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
	}
	ref, err := engine.New(cfg, m.Dim(), p.Weights(), engine.NewSequential(devices, cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := mathx.Clone(ref.Global())

	c, wg := launchTracedWorkers(t, p, m, cfg.Seed, nil)
	defer c.Close()
	eng, err := engine.New(cfg, m.Dim(), c.Weights(), c.Executor(cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New("coordinator")
	eng.SetTracer(tracer)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()

	for i := range want {
		if eng.Global()[i] != want[i] {
			t.Fatalf("traced TCP model differs from untraced reference at %d", i)
		}
	}

	spans := tracer.Spans()
	rounds := make(map[uint64]int) // round-span ID → round number
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "round ") && sp.Lane == "engine" {
			rounds[sp.ID] = sp.Round
		}
	}
	if len(rounds) != cfg.Rounds {
		t.Fatalf("got %d round spans, want %d", len(rounds), cfg.Rounds)
	}
	solves := make(map[uint64]string) // solve-span ID → worker proc
	solvesPerProc := make(map[string]int)
	for _, sp := range spans {
		if sp.Name != "solve" {
			continue
		}
		if !strings.HasPrefix(sp.Proc, "worker-") {
			t.Fatalf("solve span not on a worker process row: %+v", sp)
		}
		if _, ok := rounds[sp.Parent]; !ok {
			t.Fatalf("solve span not parented under a coordinator round span: %+v", sp)
		}
		if sp.End < sp.Start || sp.Start < 0 {
			t.Fatalf("solve span has a bad re-based time range: %+v", sp)
		}
		solves[sp.ID] = sp.Proc
		solvesPerProc[sp.Proc]++
	}
	for k := 0; k < len(p.Clients); k++ {
		proc := "worker-" + strconv.Itoa(k)
		if solvesPerProc[proc] != cfg.Rounds {
			t.Fatalf("%s: %d solve spans, want %d", proc, solvesPerProc[proc], cfg.Rounds)
		}
	}
	// Worker-side sub-phase spans must ride along, as children of solves.
	var anchors, inners int
	for _, sp := range spans {
		switch sp.Name {
		case "anchor-grad", "inner-loop":
			proc, ok := solves[sp.Parent]
			if !ok || proc != sp.Proc {
				t.Fatalf("sub-phase span not under its own solve: %+v", sp)
			}
			if sp.Name == "anchor-grad" {
				anchors++
			} else {
				inners++
			}
		}
	}
	wantSub := len(p.Clients) * cfg.Rounds
	if anchors != wantSub || inners != wantSub {
		t.Fatalf("got %d anchor-grad / %d inner-loop spans, want %d each", anchors, inners, wantSub)
	}

	// The same structure must survive the Chrome export: a solve event on a
	// worker pid, parented (args.parent_id) under a round event's span_id on
	// a different pid.
	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
			Args  struct {
				SpanID   uint64 `json:"span_id"`
				ParentID uint64 `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("Chrome export does not parse: %v", err)
	}
	roundPID := make(map[uint64]int)
	for _, ev := range tf.TraceEvents {
		if ev.Phase == "X" && strings.HasPrefix(ev.Name, "round ") {
			roundPID[ev.Args.SpanID] = ev.PID
		}
	}
	crossProcess := 0
	for _, ev := range tf.TraceEvents {
		if ev.Phase != "X" || ev.Name != "solve" {
			continue
		}
		pid, ok := roundPID[ev.Args.ParentID]
		if !ok {
			t.Fatalf("exported solve event's parent_id %d is not a round span", ev.Args.ParentID)
		}
		if ev.PID != pid {
			crossProcess++
		}
	}
	if crossProcess != wantSub {
		t.Fatalf("%d cross-process solve events in the export, want %d", crossProcess, wantSub)
	}
}

// TestTraceTreeShardSpans: the shard node's session carries tracing like a
// worker's. A traced tree run must ship exactly one shard-solve span per
// shard per round, parented under that round's span on the shard's own
// process row, and leave the global model bit-identical to the untraced run.
func TestTraceTreeShardSpans(t *testing.T) {
	const fanout = 3
	p := testPartition(6, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := traceConfig(3)
	run := func(tracer *trace.Tracer) []float64 {
		c, wg := launchTree(t, p, m, cfg.Seed, fanout, nil, tracer != nil)
		defer c.Close()
		eng, err := c.Engine(make([]float64, m.Dim()), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tracer != nil {
			eng.SetTracer(tracer)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		return mathx.Clone(eng.Global())
	}
	want := run(nil)
	tracer := trace.New("coordinator")
	got := run(tracer)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traced tree model differs from the untraced run at %d", i)
		}
	}

	spans := tracer.Spans()
	rounds := make(map[uint64]int) // round-span ID → round number
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "round ") && sp.Lane == "engine" {
			rounds[sp.ID] = sp.Round
		}
	}
	if len(rounds) != cfg.Rounds {
		t.Fatalf("got %d round spans, want %d", len(rounds), cfg.Rounds)
	}
	type procRound struct {
		proc  string
		round int
	}
	solves := make(map[procRound]int)
	for _, sp := range spans {
		if sp.Name != "shard-solve" {
			continue
		}
		round, ok := rounds[sp.Parent]
		if !ok {
			t.Fatalf("shard-solve span not parented under a coordinator round span: %+v", sp)
		}
		solves[procRound{sp.Proc, round}]++
	}
	if len(solves) != fanout*cfg.Rounds {
		t.Fatalf("shard-solve spans cover %d (process, round) pairs, want %d: %v", len(solves), fanout*cfg.Rounds, solves)
	}
	for s := 0; s < fanout; s++ {
		for r := 1; r <= cfg.Rounds; r++ {
			if n := solves[procRound{"shard-" + strconv.Itoa(s), r}]; n != 1 {
				t.Fatalf("shard %d round %d: %d shard-solve spans, want 1", s, r, n)
			}
		}
	}
}

// TestTraceRetryEvent: an injected flake must surface as a "retry" event on
// the coordinator's round span, and the retried round must still succeed.
func TestTraceRetryEvent(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := traceConfig(3)
	sched := &chaos.Schedule{
		Seed:   1,
		Events: []chaos.Event{{Device: 0, Round: 2, Kind: chaos.Flake}},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	c, wg := launchTracedWorkers(t, p, m, cfg.Seed, map[int]*chaos.Schedule{0: sched})
	defer c.Close()
	c.SetFaultPolicy(FaultPolicy{MaxRetries: 2, RetryBackoff: 5 * time.Millisecond,
		MinParticipants: 1, MaxFailedRounds: 3})
	eng, err := engine.New(cfg, m.Dim(), c.Weights(), c.Executor(cfg.Local))
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New("coordinator")
	eng.SetTracer(tracer)
	series, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()

	var retries int
	for _, ev := range tracer.Events() {
		if ev.Name == "retry" {
			if !strings.Contains(ev.Detail, "client 0") || ev.Round != 2 {
				t.Fatalf("retry event mis-attributed: %+v", ev)
			}
			retries++
		}
	}
	if retries == 0 {
		t.Fatal("flaked round produced no retry event")
	}
	for _, pt := range series.Points {
		if pt.Failed != 0 {
			t.Fatalf("round %d: %d failures — the flake retry did not recover", pt.Round, pt.Failed)
		}
	}
}
