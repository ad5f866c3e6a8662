package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// object format: {"traceEvents": [...]}), as consumed by Perfetto and
// chrome://tracing. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeInstant struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	TS   float64                `json:"ts"`
	S    string                 `json:"s"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

type chromeFile struct {
	TraceEvents []interface{} `json:"traceEvents"`
	// DisplayTimeUnit hints viewers to millisecond granularity.
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// laneTable assigns stable Chrome pid/tid numbers to (proc, lane) pairs in
// first-seen order, emitting the process_name/thread_name metadata events
// viewers use to label rows.
type laneTable struct {
	defaultProc string
	pids        map[string]int
	tids        map[[2]string]int
	meta        []interface{}
}

func newLaneTable(defaultProc string) *laneTable {
	return &laneTable{defaultProc: defaultProc, pids: map[string]int{}, tids: map[[2]string]int{}}
}

func (lt *laneTable) resolve(proc, lane string) (pid, tid int) {
	if proc == "" {
		proc = lt.defaultProc
	}
	pid, ok := lt.pids[proc]
	if !ok {
		pid = len(lt.pids) + 1
		lt.pids[proc] = pid
		lt.meta = append(lt.meta, chromeMeta{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]interface{}{"name": proc},
		})
	}
	key := [2]string{proc, lane}
	tid, ok = lt.tids[key]
	if !ok {
		tid = len(lt.tids) + 1
		lt.tids[key] = tid
		label := lane
		if label == "" {
			label = proc
		}
		lt.meta = append(lt.meta, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]interface{}{"name": label},
		})
	}
	return pid, tid
}

// WriteChrome renders the trace as Chrome trace-event JSON: open the file
// in https://ui.perfetto.dev or chrome://tracing. Span hierarchy is
// carried in args (span_id/parent_id) in addition to the visual nesting,
// so tooling can reconstruct the tree exactly. A nil tracer writes an
// empty (but valid) trace.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	events := t.Events()
	lt := newLaneTable(t.procName())
	out := make([]interface{}, 0, len(spans)+len(events)+8)
	for _, r := range spans {
		pid, tid := lt.resolve(r.Proc, r.Lane)
		end := r.End
		if end < r.Start {
			end = r.Start // still open at export: zero-duration marker
		}
		args := map[string]interface{}{"span_id": r.ID}
		if r.Parent != 0 {
			args["parent_id"] = r.Parent
		}
		if r.Round != 0 {
			args["round"] = r.Round
		}
		out = append(out, chromeEvent{
			Name: r.Name, Ph: "X", Pid: pid, Tid: tid,
			TS: r.Start * 1e6, Dur: (end - r.Start) * 1e6, Args: args,
		})
	}
	for _, ev := range events {
		pid, tid := lt.resolve(ev.Proc, ev.Lane)
		args := map[string]interface{}{}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		if ev.Span != 0 {
			args["span_id"] = ev.Span
		}
		if ev.Round != 0 {
			args["round"] = ev.Round
		}
		out = append(out, chromeInstant{
			Name: ev.Name, Ph: "i", Pid: pid, Tid: tid, TS: ev.TS * 1e6, S: "t", Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: append(lt.meta, out...), DisplayTimeUnit: "ms"})
}

// WriteJSONL renders the trace as one JSON object per line — a trace
// header, then spans and events interleaved by start time — symmetric
// with the per-round JSONL of internal/obs. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	type line struct {
		Kind string `json:"kind"`
		ts   float64
		body interface{}
	}
	spans := t.Spans()
	events := t.Events()
	lines := make([]line, 0, len(spans)+len(events))
	for i := range spans {
		if spans[i].End < spans[i].Start {
			spans[i].End = spans[i].Start
		}
		lines = append(lines, line{Kind: "span", ts: spans[i].Start, body: spans[i]})
	}
	for i := range events {
		lines = append(lines, line{Kind: "event", ts: events[i].TS, body: events[i]})
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].ts < lines[j].ts })

	enc := json.NewEncoder(w)
	header := struct {
		Kind    string `json:"kind"`
		TraceID uint64 `json:"trace_id"`
		Proc    string `json:"proc"`
	}{Kind: "trace", TraceID: t.TraceID(), Proc: t.procName()}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, l := range lines {
		var rec interface{}
		switch b := l.body.(type) {
		case Rec:
			rec = struct {
				Kind string `json:"kind"`
				Rec
			}{l.Kind, b}
		case EventRec:
			rec = struct {
				Kind string `json:"kind"`
				EventRec
			}{l.Kind, b}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tracer) procName() string {
	if t == nil || t.proc == "" {
		return "trace"
	}
	return t.proc
}
