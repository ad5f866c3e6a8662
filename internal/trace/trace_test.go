package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.TraceID() != 0 {
		t.Fatalf("nil TraceID = %d, want 0", tr.TraceID())
	}
	tr.StartRun("run").End()
	tr.StartRound(1).End()
	tr.StartPhase("execute").End()
	tr.StartClient(3).End()
	tr.RoundEvent("fault", "detail")
	tr.IngestWire([]WireSpan{{ID: 1, Name: "solve", Start: 0, End: 1}}, 7, "w", time.Now())
	if tr.Spans() != nil || tr.Events() != nil {
		t.Fatal("nil tracer recorded data")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL wrote %q", buf.String())
	}
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var cf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatalf("nil WriteChrome emitted invalid JSON: %v", err)
	}
}

func TestHierarchy(t *testing.T) {
	tr := New("test")
	run := tr.StartRun("run")
	rd := tr.StartRound(1)
	ph := tr.StartPhase("execute")
	cl := tr.StartClient(4)
	cl.End()
	ph.End()
	tr.RoundEvent("straggler-cut", "device 2")
	rd.End()
	rd2 := tr.StartRound(2)
	rd2.End()
	run.End()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	byName := map[string]Rec{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["round 1"].Parent != run.id {
		t.Fatalf("round 1 parent = %d, want run %d", byName["round 1"].Parent, run.id)
	}
	if byName["round 2"].Parent != run.id {
		t.Fatalf("round 2 parent = %d, want run %d", byName["round 2"].Parent, run.id)
	}
	if byName["execute"].Parent != rd.id {
		t.Fatalf("execute parent = %d, want round %d", byName["execute"].Parent, rd.id)
	}
	if byName["client 4"].Parent != rd.id {
		t.Fatalf("client 4 parent = %d, want round %d", byName["client 4"].Parent, rd.id)
	}
	if byName["client 4"].Round != 1 {
		t.Fatalf("client 4 round = %d, want 1", byName["client 4"].Round)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %q left open: start %v end %v", s.Name, s.Start, s.End)
		}
	}
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].Span != rd.id || evs[0].Name != "straggler-cut" || evs[0].Round != 1 {
		t.Fatalf("event anchored wrong: %+v", evs[0])
	}
}

func TestIngestWireRemapsAndRebases(t *testing.T) {
	tr := New("coord")
	tr.StartRun("run")
	rd := tr.StartRound(3)
	wire := []WireSpan{
		{ID: 1, Parent: 0, Name: "solve", Start: 0.01, End: 0.05},
		{ID: 2, Parent: 1, Name: "anchor-grad", Start: 0.01, End: 0.02},
		{ID: 3, Parent: 1, Name: "inner-loop", Start: 0.02, End: 0.05},
	}
	tr.IngestWire(wire, rd.id, "worker-1", time.Now())
	rd.End()

	spans := tr.Spans()
	byName := map[string]Rec{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	solve := byName["solve"]
	if solve.Parent != rd.id {
		t.Fatalf("solve parent = %d, want round %d", solve.Parent, rd.id)
	}
	if solve.Proc != "worker-1" {
		t.Fatalf("solve proc = %q, want worker-1", solve.Proc)
	}
	if solve.Round != 3 {
		t.Fatalf("solve round = %d, want 3", solve.Round)
	}
	if byName["anchor-grad"].Parent != solve.ID || byName["inner-loop"].Parent != solve.ID {
		t.Fatal("wire-internal parents not remapped to the fresh solve ID")
	}
	// IDs must be fresh, not the reply-local 1..3.
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d after ingest", s.ID)
		}
		seen[s.ID] = true
	}
	if got := byName["anchor-grad"].End - byName["anchor-grad"].Start; got < 0.0099 || got > 0.0101 {
		t.Fatalf("ingested duration = %v, want 0.01", got)
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := New("fedsim")
	run := tr.StartRun("run")
	rd := tr.StartRound(1)
	tr.StartClient(0).End()
	tr.RoundEvent("chaos:delay", "device 0")
	tr.IngestWire([]WireSpan{{ID: 1, Name: "solve", Start: 0, End: 0.01}}, rd.id, "worker-1", time.Now())
	rd.End()
	run.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var cf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]interface{}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatalf("Chrome JSON does not parse: %v", err)
	}
	var procs, instants, complete int
	pidByProc := map[string]int{}
	for _, ev := range cf.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs++
				pidByProc[ev.Args["name"].(string)] = ev.Pid
			}
		case "i":
			instants++
		case "X":
			complete++
		}
	}
	if procs != 2 {
		t.Fatalf("got %d process_name metas, want 2 (fedsim + worker-1)", procs)
	}
	if instants != 1 {
		t.Fatalf("got %d instant events, want 1", instants)
	}
	if complete != 4 {
		t.Fatalf("got %d complete events, want 4", complete)
	}
	// The ingested worker span must sit on the worker's own pid and carry
	// the coordinator round span as parent_id.
	for _, ev := range cf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "solve" {
			if ev.Pid != pidByProc["worker-1"] {
				t.Fatalf("solve pid = %d, want worker-1's %d", ev.Pid, pidByProc["worker-1"])
			}
			if uint64(ev.Args["parent_id"].(float64)) != rd.id {
				t.Fatalf("solve parent_id = %v, want %d", ev.Args["parent_id"], rd.id)
			}
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New("fedsim")
	run := tr.StartRun("run")
	tr.StartRound(1).End()
	tr.RoundEvent("retry", "worker 0")
	run.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var rec map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q does not parse: %v", sc.Text(), err)
		}
		kinds = append(kinds, rec["kind"].(string))
	}
	want := "trace span span event"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("kinds = %q, want %q", got, want)
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *Recorder
	nilRec.Rebase()
	ws := nilRec.Start("solve", 0)
	ws.End()
	if ws.ID() != 0 || nilRec.Take() != nil {
		t.Fatal("nil Recorder not a no-op")
	}

	rec := NewRecorder()
	rec.Rebase()
	solve := rec.Start("solve", 0)
	child := rec.Start("anchor-grad", solve.ID())
	child.End()
	open := rec.Start("inner-loop", solve.ID())
	_ = open // left open: Take must clamp it
	solve.End()
	spans := rec.Take()
	if len(spans) != 3 {
		t.Fatalf("got %d wire spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID {
		t.Fatalf("wire parenting wrong: %+v", spans)
	}
	if spans[2].End < spans[2].Start {
		t.Fatal("open span not clamped by Take")
	}
	rec.Rebase()
	if rec.Take() != nil {
		t.Fatal("Rebase did not clear spans")
	}
	again := rec.Start("solve", 0)
	if again.ID() != 1 {
		t.Fatalf("post-Rebase ID = %d, want 1 (reply-local IDs restart)", again.ID())
	}
}
