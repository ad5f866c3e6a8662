package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

// Worker is the device side of the distributed runtime: it connects to a
// coordinator, announces its shard size, and serves rounds until told to
// stop. Its RNG stream derivation matches engine.NewDevice, so a distributed
// run is bit-identical to the in-process simulator with the same seed.
type Worker struct {
	id     int
	device *engine.Device
	shard  *data.Dataset
	addr   string
	conn   net.Conn

	// The worker executes its device's solves itself, so it owns the memory
	// they run in and the one buffer they report into; both are sized by the
	// first round.
	scratch optim.Scratch
	local   []float64

	// req/wbuf/sc are reusable decode/encode buffers so the steady-state
	// round loop does not allocate for the wire.
	fr   frameReader
	fw   frameWriter
	req  RoundRequest
	wbuf []byte
	sc   replyScratch

	// forced, when forceOn, is the codec the worker replies in regardless
	// of what the request asked for — a deliberately wrong configuration
	// knob (fedclient -codec) whose mismatched replies the coordinator
	// rejects, proving the same-codec contract is enforced end to end.
	forced  Codec
	forceOn bool

	// Chaos injection (nil for plain workers). cconn is the chaos wrapper
	// around conn when sched != nil, kept so Delay events can arm it.
	sched *chaos.Schedule
	cconn *chaos.Conn
	// flaked remembers rounds whose injected flake already fired, so the
	// coordinator's retry of the same round succeeds (flake-once semantics).
	flaked map[int]bool

	// Lease (jobs control plane): offered in every Hello.
	// When the coordinator answers with a LeaseReject, the worker adopts
	// the told values before re-dialing — see recvRequest and lost.
	leaseJob   string
	leaseEpoch int64

	// Rejoin policy: after an unclean connection loss the worker re-dials
	// the coordinator up to rejoinAttempts times, spaced by rejoinBackoff,
	// and is adopted back at the next round boundary. Zero attempts keeps
	// the historical die-on-disconnect behavior.
	rejoinAttempts int
	rejoinBackoff  time.Duration
	outageTries    int

	// rec, when non-nil, records per-round solve spans (solve, anchor-grad,
	// inner-loop) relative to each request's receipt and ships them back in
	// the reply — but only for requests that carry a TraceID, so a tracing
	// worker against a non-tracing coordinator sends nothing extra.
	rec *trace.Recorder
}

// EnableTrace makes the worker record local-solve trace spans and return
// them in round replies whenever the coordinator propagates a trace
// context (RoundRequest.TraceID != 0). Call before Serve.
func (w *Worker) EnableTrace() { w.rec = trace.NewRecorder() }

// ForceCodec pins the worker's reply codec instead of following each
// request's. This is intentionally allowed to disagree with the
// coordinator, which then rejects the replies — the knob exists to
// configure (and test) exactly that rejection. Call before Serve.
func (w *Worker) ForceCodec(c Codec) { w.forced, w.forceOn = c, true }

// NewWorker connects to addr and performs the Hello handshake. The same
// call is the rejoin path: a worker restarted after a crash dials the
// coordinator again with its old client ID and shard, and is adopted back
// into the cohort at the next round boundary. The device RNG is re-keyed
// from each request's round number (a pure (seed, id, round) hash — see
// engine.Device.BeginRound), so a restarted worker's draws for round t are
// identical to the original process's: a run with a rejoined worker is
// bit-identical to the equivalent scripted-dropout run, and survives a
// coordinator restart the same way.
func NewWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64) (*Worker, error) {
	return newWorker(addr, id, shard, m, seed, nil, "", 0)
}

// NewChaosWorker is NewWorker with a fault schedule: before solving each
// round the worker looks up ActionFor(id, round) and enforces the event on
// the wire — killing the connection (Crash/Partition), failing once
// (Flake), delaying its reply (Delay), or corrupting its update (Corrupt).
// Because the in-process chaos decorator injects the same faults at the
// same (device, round) points without consuming device RNG, a chaos run is
// bit-identical across the sequential, parallel, and TCP backends.
//
// Chaos workers default to rejoining after injected kills (40 attempts,
// 25ms apart) so Crash and Partition events are per-round outages rather
// than permanent losses; tune with SetRejoin.
func NewChaosWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*Worker, error) {
	return newWorker(addr, id, shard, m, seed, sched, "", 0)
}

// NewLeasedWorker is NewWorker for the jobs control plane: every Hello
// offers (jobID, epoch), and a coordinator incarnation holding a different
// lease answers with a LeaseReject naming its own — the worker adopts the
// told values and re-Hello's through its rejoin loop, so a worker leased
// to a dead incarnation is fenced out of the next one until it rejoins
// under the new epoch. Leased workers default to a persistent rejoin
// policy (40 attempts, 25ms apart — tune with SetRejoin): surviving the
// coordinator restart is their whole point.
func NewLeasedWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, jobID string, epoch int64) (*Worker, error) {
	return newWorker(addr, id, shard, m, seed, nil, jobID, epoch)
}

// newWorker builds and dials a worker. A chaos schedule or a lease turns
// on the persistent rejoin policy its constructor documents.
func newWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, sched *chaos.Schedule, leaseJob string, leaseEpoch int64) (*Worker, error) {
	w := &Worker{
		id:         id,
		device:     engine.NewDevice(id, shard, m, seed),
		shard:      shard,
		addr:       addr,
		sched:      sched,
		leaseJob:   leaseJob,
		leaseEpoch: leaseEpoch,
	}
	if sched != nil {
		w.flaked = make(map[int]bool)
	}
	if sched != nil || leaseJob != "" || leaseEpoch != 0 {
		w.rejoinAttempts = 40
		w.rejoinBackoff = 25 * time.Millisecond
	}
	if err := w.dial(); err != nil {
		return nil, err
	}
	return w, nil
}

// SetRejoin configures how persistently the worker re-dials the
// coordinator after losing its connection. attempts == 0 disables
// rejoining (the historical behavior for plain workers).
func (w *Worker) SetRejoin(attempts int, backoff time.Duration) {
	w.rejoinAttempts = attempts
	w.rejoinBackoff = backoff
}

// dial (re)establishes the connection and performs the Hello handshake.
// The chaos wrapper, when present, must be installed before the frame
// reader and writer are built: the wire assumes a single uninterrupted
// stream, so swapping the writer mid-stream would corrupt the protocol.
func (w *Worker) dial() error {
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		return protocolError("dial", err)
	}
	w.conn = conn
	w.cconn = nil
	if w.sched != nil {
		w.cconn = chaos.NewConn(conn)
		w.conn = w.cconn
	}
	w.fw = frameWriter{w: w.conn}
	w.fr = frameReader{r: bufio.NewReader(w.conn)}
	w.wbuf = marshalHello(w.wbuf[:0], &Hello{
		ClientID: w.id, NumSamples: w.shard.N(),
		JobID: w.leaseJob, Epoch: w.leaseEpoch,
	})
	if err := w.fw.writeFrame(w.wbuf); err != nil {
		conn.Close()
		return protocolError("hello", err)
	}
	return nil
}

// errStaleLease is returned by recvRequest when the coordinator answered
// the Hello with a LeaseReject. The worker has already adopted the told
// (job, epoch) by then, so the normal lost() path — re-dial, re-Hello —
// performs the lease renewal with no extra machinery.
var errStaleLease = errors.New("transport: lease is stale")

// recvRequest reads the next round request off the wire into w.req,
// overwriting every field.
func (w *Worker) recvRequest() error {
	typ, payload, err := w.fr.next()
	if err != nil {
		return err
	}
	switch typ {
	case msgRoundRequest:
		return unmarshalRequest(payload, &w.req)
	case msgLeaseReject:
		lr, err := unmarshalLeaseReject(payload)
		if err != nil {
			return err
		}
		w.leaseJob, w.leaseEpoch = lr.JobID, lr.Epoch
		return errStaleLease
	default:
		return errFrame("expected round request, got frame type %d", typ)
	}
}

// sendReply encodes and writes rep. ref is the decoded request anchor, the
// delta codecs' reference.
func (w *Worker) sendReply(rep *RoundReply, ref []float64) error {
	w.wbuf = marshalReply(w.wbuf[:0], rep, ref, &w.sc, w.req.TopK)
	return w.fw.writeFrame(w.wbuf)
}

// Serve processes round requests until the coordinator sends Done or the
// connection closes. A clean shutdown (Done or EOF) returns nil. With a
// rejoin policy, connection losses trigger re-dials before giving up.
func (w *Worker) Serve() error {
	defer func() { w.conn.Close() }()
	for {
		again, err := w.serveConn()
		if !again || err != nil {
			return err
		}
	}
}

// serveConn runs the request loop on the current connection. It returns
// (true, nil) when the worker rejoined on a fresh connection and the loop
// should continue.
func (w *Worker) serveConn() (rejoin bool, err error) {
	for {
		if err := w.recvRequest(); err != nil {
			return w.lost(err)
		}
		req := &w.req
		if req.Done {
			return false, nil
		}
		w.outageTries = 0

		var ev chaos.Event
		var chaotic bool
		if w.sched != nil {
			ev, chaotic = w.sched.ActionFor(w.id, req.Round)
		}
		// anchor doubles as the delta codecs' reference: the decoder fills
		// req.Anchor with the dequantized anchor — by construction
		// bit-identical to the coordinator's codecReference output.
		anchor := req.Anchor
		if chaotic {
			switch ev.Kind {
			case chaos.Crash, chaos.Partition:
				// Kill before solving: the device RNG stays untouched this
				// round, matching the in-process decorator, which skips the
				// device entirely.
				w.killConn()
				return w.lost(net.ErrClosed)
			case chaos.Flake:
				if !w.flaked[req.Round] {
					w.flaked[req.Round] = true
					rep := RoundReply{ClientID: w.id, Round: req.Round, Err: "chaos: injected flake"}
					if err := w.sendReply(&rep, anchor); err != nil {
						return w.lost(err)
					}
					continue
				}
			case chaos.Delay:
				w.cconn.ArmWriteDelay(ev.Delay())
			}
		}

		rep := RoundReply{ClientID: w.id, Round: req.Round, Codec: req.Codec}
		if w.forceOn {
			rep.Codec = w.forced
		}
		traceOn := w.rec != nil && req.TraceID != 0
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.Err = toErrString(r)
				}
			}()
			var solve trace.WSpan
			if traceOn {
				// Span times are relative to this Rebase (the request's
				// receipt); the coordinator re-bases them onto its timeline.
				// Wire parent 0 designates the propagated round span.
				w.rec.Rebase()
				solve = w.rec.Start("solve", 0)
				w.device.Solver.SetPhaseHook(func(name string) func() {
					return w.rec.Start(name, solve.ID()).End
				})
				defer w.device.Solver.SetPhaseHook(nil)
			}
			start := time.Now()
			// Re-key the device stream from the wire round number: round t's
			// draws are a pure (seed, id, round) hash, identical whether this
			// worker process has served rounds 1..t-1 or just rejoined.
			w.device.BeginRound(req.Round)
			if len(w.local) != len(anchor) {
				w.local = make([]float64, len(anchor))
			}
			local := w.local
			w.device.RunRound(&w.scratch, anchor, local, req.Local)
			rep.SolveSeconds = time.Since(start).Seconds()
			if traceOn {
				solve.End()
				rep.Spans = w.rec.Take()
			}
			if chaotic && ev.Kind == chaos.Corrupt {
				cp := append([]float64(nil), local...)
				w.sched.CorruptVec(ev, cp)
				local = cp
			}
			// Full precision here; sendReply encodes per rep.Codec.
			rep.Local = local
			rep.GradEvals = w.device.GradEvals()
		}()
		if err := w.sendReply(&rep, anchor); err != nil {
			return w.lost(err)
		}
	}
}

// killConn drops the connection abruptly (RST when possible), simulating
// a process crash or network partition.
func (w *Worker) killConn() {
	if w.cconn != nil {
		w.cconn.Kill()
		return
	}
	w.conn.Close()
}

// lost handles a connection loss: clean closes (Done/EOF/ErrClosed) with
// no rejoin policy end Serve with nil, other errors propagate. With a
// rejoin policy the worker re-dials; a refused dial means the coordinator
// is gone, so the worker gives up immediately rather than burn the
// remaining attempts.
func (w *Worker) lost(cause error) (rejoin bool, err error) {
	clean := errors.Is(cause, io.EOF) || errors.Is(cause, net.ErrClosed)
	if w.rejoinAttempts <= 0 {
		if clean {
			return false, nil
		}
		return false, protocolError("recv", cause)
	}
	w.conn.Close()
	for w.outageTries < w.rejoinAttempts {
		w.outageTries++
		time.Sleep(w.rejoinBackoff)
		if err := w.dial(); err == nil {
			return true, nil
		}
	}
	if clean {
		return false, nil
	}
	return false, protocolError("recv", cause)
}

func toErrString(r interface{}) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	if s, ok := r.(string); ok {
		return s
	}
	return "worker panic"
}

// Close terminates the connection (Serve will then return).
func (w *Worker) Close() error { return w.conn.Close() }
