package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/trace"
	"fedproxvr/internal/transport"
)

// traceBlock is how many consecutive rounds of a traced run share one
// tracing state. The run alternates traced and untraced blocks on one
// engine, so the two sets of round times see the same machine state and
// their ratio is the tracing overhead.
const traceBlock = 10

// roundRec is the part of an obs.RoundStats record the per-layer metrics
// need (the record itself is only valid during RecordRound).
type roundRec struct {
	round                        int
	sel, exec, agg, eval         float64 // seconds
	participants, failed, strag  int
	retries, rejoins             int
	gradEvals                    int64
	bytesSent, bytesRecv, spanBs int64
	clients                      []obs.ClientStat
}

// connCounters are the coordinator-side totals over every fleet
// connection; cumulative, snapshotted once per round.
type connCounters struct {
	sent, recv      atomic.Int64
	writes, reads   atomic.Int64
	writeNs, readNs atomic.Int64
}

type connSnap struct{ sent, recv, writes, reads, writeNs, readNs int64 }

func (c *connCounters) snap() connSnap {
	return connSnap{c.sent.Load(), c.recv.Load(), c.writes.Load(), c.reads.Load(), c.writeNs.Load(), c.readNs.Load()}
}

// countingListener hands the coordinator connections that count bytes and
// calls, and — while timed is set — the time spent inside Write and Read.
type countingListener struct {
	net.Listener
	stats *connCounters
	timed *atomic.Bool
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, stats: l.stats, timed: l.timed}, nil
}

type countingConn struct {
	net.Conn
	stats *connCounters
	timed *atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	var t0 time.Time
	timed := c.timed.Load()
	if timed {
		t0 = time.Now()
	}
	n, err := c.Conn.Write(p)
	if timed {
		c.stats.writeNs.Add(int64(time.Since(t0)))
	}
	c.stats.writes.Add(1)
	c.stats.sent.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	var t0 time.Time
	timed := c.timed.Load()
	if timed {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	if timed {
		c.stats.readNs.Add(int64(time.Since(t0)))
	}
	c.stats.reads.Add(1)
	c.stats.recv.Add(int64(n))
	return n, err
}

// tracing is a traced run's instrumentation, all of it outside the
// program: a StatsRecorder, the repo's span tracer, solver phase hooks and
// the counting listener.
type tracing struct {
	tr     *trace.Tracer
	on     atomic.Bool // the round now running is traced
	warmup int
	eng    *engine.Engine

	recs   []roundRec
	traced []bool     // by round-1: was the round traced
	snaps  []connSnap // by round-1: conn counters after the round
	conn   connCounters
	snap0  connSnap
}

func newTracing(name string, warmup int) *tracing {
	t := &tracing{tr: trace.New("bench-" + name), warmup: warmup}
	t.on.Store(true)
	return t
}

// RecordRound implements engine.StatsRecorder.
func (t *tracing) RecordRound(rs *obs.RoundStats) {
	t.recs = append(t.recs, roundRec{
		round: rs.Round, sel: rs.SelectSeconds, exec: rs.ExecSeconds, agg: rs.AggSeconds, eval: rs.EvalSeconds,
		participants: rs.Participants, failed: rs.Failed, strag: rs.Stragglers,
		retries: rs.Retries, rejoins: rs.Rejoins, gradEvals: rs.GradEvals,
		bytesSent: rs.BytesSent, bytesRecv: rs.BytesRecv, spanBs: rs.SpanBytes,
		clients: append([]obs.ClientStat(nil), rs.Clients...),
	})
}

// tracedRound says whether round r runs with stats and spans on: the
// warm-up and every other block after it.
func (t *tracing) tracedRound(r int) bool {
	return r <= t.warmup || ((r-t.warmup-1)/traceBlock)%2 == 0
}

func (t *tracing) set(on bool) {
	t.on.Store(on)
	if on {
		t.eng.SetStats(t)
		t.eng.SetTracer(t.tr)
	} else {
		t.eng.SetStats(nil)
		t.eng.SetTracer(nil)
	}
}

// attach switches the engine's stats and tracer on and flips them at block
// boundaries from the round clock's hook (between rounds, where the engine
// allows it).
func (t *tracing) attach(eng *engine.Engine, clock *roundClock) {
	t.eng = eng
	t.set(true)
	t.snap0 = t.conn.snap()
	clock.onRound = func(round int) {
		t.traced = append(t.traced, t.on.Load())
		t.snaps = append(t.snaps, t.conn.snap())
		if next := t.tracedRound(round + 1); next != t.on.Load() {
			t.set(next)
		}
	}
}

// phaseHook is installed on every in-process device's solver: it records
// the anchor-grad and inner-loop sub-phases as spans under the round, the
// way a TCP worker's own recorder does.
func (t *tracing) phaseHook(name string) func() {
	if !t.on.Load() {
		return func() {}
	}
	return t.tr.StartSpan(name, t.tr.CurrentRound()).End
}

// layers fills the per-layer metrics of an engine-driven workload: what
// the traced episode recorded, the model and speed-up probes, and the
// trace file.
func (s *engineSystem) layers(raw map[string]float64, ep *episode, root string) error {
	raw["data.generate_s"] = s.generateS
	for _, g := range s.t.layers(raw, s, ep) {
		// Not a failed check: an instrumentation gap in the program is the
		// observability issue's input (README, "known instrumentation gaps").
		fmt.Fprintf(os.Stderr, "%s: attribution gap: %s\n", s.name, g)
	}
	probeModels(raw, s.task, ep.final[0])
	if !s.tcp() {
		seq, err := probeSpeedup(s)
		if err != nil {
			return err
		}
		if exec := raw["engine.execute_ms"]; exec > 0 {
			raw["engine.parallel_speedup"] = seq / exec
		}
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, s.name+".trace.json"))
	if err != nil {
		return err
	}
	if err := s.t.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers reduces what the traced episode recorded to per-layer metrics and
// names the attribution gaps it found. ep.roundMs[0] is round warmup+1.
func (t *tracing) layers(raw map[string]float64, s *engineSystem, ep *episode) []string {
	var gaps []string
	procs := float64(runtime.GOMAXPROCS(0))
	tau := float64(s.sz.tau)

	// Span self-times by round and name.
	anchor := map[int]float64{}
	inner := map[int]float64{}
	var innerSpans, anchorSpans []float64
	spans := t.tr.Spans()
	for _, sp := range spans {
		if sp.End < sp.Start {
			continue
		}
		d := (sp.End - sp.Start) * 1000
		switch sp.Name {
		case "anchor-grad":
			anchor[sp.Round] += d
			anchorSpans = append(anchorSpans, d)
		case "inner-loop":
			inner[sp.Round] += d
			innerSpans = append(innerSpans, d)
		}
	}

	var sel, exec, agg, eval, unattr, eff, anc, inn, solveGap, wire []float64
	var tracedMs, untracedMs []float64
	var first, last *roundRec
	for i := range t.recs {
		r := &t.recs[i]
		raw["engine.participants"] += float64(r.participants)
		raw["engine.failed"] += float64(r.failed)
		raw["engine.stragglers"] += float64(r.strag)
		raw["transport.retries"] += float64(r.retries)
		raw["transport.rejoins"] += float64(r.rejoins)
		if r.round <= t.warmup {
			continue
		}
		if first == nil {
			first = r
		}
		last = r
		sel = append(sel, r.sel*1000)
		exec = append(exec, r.exec*1000)
		agg = append(agg, r.agg*1000)
		if r.eval > 0 {
			eval = append(eval, r.eval*1000)
		}
		wall := ep.roundMs[r.round-t.warmup-1]
		unattr = append(unattr, 100*(wall-(r.sel+r.exec+r.agg+r.eval)*1000)/wall)
		var solve float64
		for _, c := range r.clients {
			solve += c.SolveSeconds
			if s.tcp() {
				wire = append(wire, (c.Seconds-c.SolveSeconds)*1000)
			}
		}
		if r.exec > 0 && len(r.clients) > 0 {
			eff = append(eff, solve/(r.exec*procs))
		}
		anc = append(anc, anchor[r.round])
		inn = append(inn, inner[r.round])
		if solve > 0 {
			solveGap = append(solveGap, 100*(solve*1000-anchor[r.round]-inner[r.round])/(solve*1000))
		}
	}
	for i, d := range ep.roundMs {
		if t.traced[i+t.warmup] {
			tracedMs = append(tracedMs, d)
		} else {
			untracedMs = append(untracedMs, d)
		}
	}

	raw["engine.select_ms"] = median(sel)
	raw["engine.execute_ms"] = median(exec)
	raw["engine.aggregate_ms"] = median(agg)
	// Evaluation rounds only; scaled by their share so the four phases add
	// up to a typical round.
	raw["engine.evaluate_ms"] = median(eval) * float64(len(eval)) / float64(max(len(exec), 1))
	raw["engine.unattributed_pct"] = median(unattr)
	raw["engine.parallel_efficiency"] = median(eff)
	raw["optim.anchor_grad_ms"] = median(anc)
	raw["optim.inner_loop_ms"] = median(inn)
	raw["optim.solve_unattributed_pct"] = median(solveGap)
	if first != nil && last.round > first.round {
		raw["optim.grad_evals_per_round"] = float64(last.gradEvals-first.gradEvals) / float64(last.round-first.round)
	}
	raw["trace.spans_per_round"] = float64(len(spans)) / float64(max(len(t.recs), 1))
	if m := median(untracedMs); m > 0 {
		raw["trace.overhead_pct"] = 100 * (median(tracedMs)/m - 1)
	}
	if v := raw["engine.unattributed_pct"]; v > 5 || v < -5 {
		gaps = append(gaps, "engine.unattributed_pct outside ±5%")
	}
	if v := raw["optim.solve_unattributed_pct"]; v > 5 || v < -5 {
		gaps = append(gaps, "anchor-grad + inner-loop spans not within 5% of SolveSeconds")
	}

	if s.tcp() {
		t.wireLayers(raw, s, wire)
	}

	// The paper's cost model d_com + d_cmp·τ, with the anchor gradient as
	// its own term and the cohort serialised over the available processors.
	dcom := raw["transport.wire_ms"]
	dcmp := median(innerSpans) / tau
	perClient := dcmp*tau + median(anchorSpans)
	cohort := float64(len(s.task.Part.Clients))
	pred := dcom + perClient*cohort/procs
	raw["simnet.d_com_ms"] = dcom
	raw["simnet.d_cmp_ms"] = dcmp
	raw["simnet.predicted_round_ms"] = pred
	if m := median(tracedMs); m > 0 {
		raw["simnet.prediction_error_pct"] = 100 * (pred - m) / m
	}
	return gaps
}

// wireLayers fills the transport.* metrics from the counting listener,
// cross-checked against RoundStats and the closed-form frame sizes.
func (t *tracing) wireLayers(raw map[string]float64, s *engineSystem, wire []float64) {
	dim := s.task.Model.Dim()
	n := len(s.task.Part.Clients)
	topK := 0
	if s.codec == transport.CodecTopK {
		topK = transport.TopKFor(transport.DefaultTopKFraction, dim)
	}
	recByRound := map[int]*roundRec{}
	for i := range t.recs {
		recByRound[t.recs[i].round] = &t.recs[i]
	}
	var sent, recv, writes, reads, writeMs, readMs, codec []float64
	mismatch := 0
	prev := t.snap0
	for i, cur := range t.snaps {
		round := i + 1
		dSent, dRecv := cur.sent-prev.sent, cur.recv-prev.recv
		traced := t.traced[i]
		wantSent := int64(n * transport.RequestWireSize(s.codec, dim, traced))
		wantRecv := int64(n * transport.ReplyWireSize(s.codec, dim, topK))
		if rec := recByRound[round]; rec != nil {
			wantRecv += rec.spanBs
			if rec.bytesSent != dSent || rec.bytesRecv != dRecv {
				mismatch++
			}
		}
		if dSent != wantSent || dRecv != wantRecv {
			mismatch++
		}
		if round > t.warmup {
			if traced {
				writeMs = append(writeMs, float64(cur.writeNs-prev.writeNs)/1e6)
				readMs = append(readMs, float64(cur.readNs-prev.readNs)/1e6)
				// What a client's round trip spent at the coordinator
				// outside conn Read and Write: frame decode, delta
				// reconstruction, span ingest.
				if rec := recByRound[round]; rec != nil {
					var trip float64
					for _, c := range rec.clients {
						trip += c.Seconds * 1000
					}
					codec = append(codec, (trip-float64(cur.writeNs-prev.writeNs+cur.readNs-prev.readNs)/1e6)/float64(n))
				}
			} else {
				// Span-free rounds: the same bytes an untraced run moves.
				sent = append(sent, float64(dSent))
				recv = append(recv, float64(dRecv))
			}
			writes = append(writes, float64(cur.writes-prev.writes))
			reads = append(reads, float64(cur.reads-prev.reads))
		}
		prev = cur
	}
	raw["transport.bytes_sent_per_round"] = median(sent)
	raw["transport.bytes_recv_per_round"] = median(recv)
	raw["transport.wire_bytes_per_round"] = median(sent) + median(recv)
	raw["transport.wire_size_mismatch"] = float64(mismatch)
	if b := raw["transport.wire_bytes_per_round"]; b > 0 {
		raw["transport.compression_ratio"] = float64(n*transport.RoundWireSize(transport.CodecFloat64, dim, 0, false)) / b
	}
	raw["transport.wire_ms"] = median(wire)
	raw["transport.conn_write_ms"] = median(writeMs)
	raw["transport.conn_read_wait_ms"] = median(readMs)
	raw["transport.write_calls_per_round"] = median(writes)
	raw["transport.read_calls_per_round"] = median(reads)
	raw["transport.codec_cpu_ms"] = median(codec)
	raw["transport.handshake_ms"] = ms(s.handshake)
}
