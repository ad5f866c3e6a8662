package transport

import (
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
)

// Worker is the device side of the distributed runtime: it connects to a
// coordinator, says Hello as the peer whose device range is its one
// device, and serves rounds until told to stop. Its RNG stream derivation matches engine.NewDevice, so a distributed
// run is bit-identical to the in-process simulator with the same seed. The
// connection, chaos, lease, rejoin and tracing machinery is the session it
// shares with AggregatorNode.
type Worker struct {
	session
	device *engine.Device

	// The worker executes its device's solves itself, so it owns the memory
	// they run in and the one buffer they report into; both are sized by the
	// first round.
	scratch optim.Scratch
	local   []float64

	// rep is the pending reply solve fills; sc is the reply encoder's
	// reusable memory.
	rep RoundReply
	sc  replyScratch

	// forced, when forceOn, is the codec the worker replies in regardless
	// of what the request asked for — a deliberately wrong configuration
	// knob (fedclient -codec) whose mismatched replies the coordinator
	// rejects, proving the same-codec contract is enforced end to end.
	forced  Codec
	forceOn bool
}

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

func newWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64, sched *chaos.Schedule, leaseJob string, leaseEpoch int64) (*Worker, error) {
	w := &Worker{
		session: session{
			id:    id,
			hello: Hello{ClientID: id, LoDevice: id, NumDevices: 1, NumSamples: int64(shard.N())},
			addr:  addr, sched: sched, leaseJob: leaseJob, leaseEpoch: leaseEpoch,
		},
		device: engine.NewDevice(id, shard, m, seed),
	}
	if err := w.connect(w); err != nil {
		return nil, err
	}
	return w, nil
}

// solve runs the device's local solve for req into w.rep, corrupting the
// reported model when ev is a Corrupt event.
func (w *Worker) solve(req *RoundRequest, ev chaos.Event) string {
	w.rep = RoundReply{ClientID: w.id, Round: req.Round, Codec: req.Codec}
	if w.forceOn {
		w.rep.Codec = w.forced
	}
	solve, traceOn := w.startSpan(req, "solve")
	if traceOn {
		w.device.Solver.SetPhaseHook(func(name string) func() {
			return w.rec.Start(name, solve.ID()).End
		})
		defer w.device.Solver.SetPhaseHook(nil)
	}
	start := time.Now()
	// Re-key the device stream from the wire round number: round t's draws
	// are a pure (seed, id, round) hash, identical whether this worker
	// process has served rounds 1..t-1 or just rejoined. The decoded anchor
	// doubles as the delta codecs' reference — by construction
	// bit-identical to the coordinator's codecReference output.
	w.device.BeginRound(req.Round)
	if len(w.local) != len(req.Anchor) {
		w.local = make([]float64, len(req.Anchor))
	}
	local := w.local
	w.device.RunRound(&w.scratch, req.Anchor, local, req.Local)
	w.rep.SolveSeconds = time.Since(start).Seconds()
	if traceOn {
		solve.End()
		w.rep.Spans = w.rec.Take()
	}
	if ev.Kind == chaos.Corrupt {
		cp := append([]float64(nil), local...)
		w.sched.CorruptVec(ev, cp)
		local = cp
	}
	// Full precision here; appendReply encodes per rep.Codec.
	w.rep.Local = local
	w.rep.GradEvals = w.device.GradEvals()
	return ""
}

func (w *Worker) appendReply(buf []byte, req *RoundRequest, errMsg string) []byte {
	w.rep.Err = errMsg
	return marshalReply(buf, &w.rep, req.Anchor, &w.sc, req.TopK)
}

func (w *Worker) appendFlake(buf []byte, req *RoundRequest) []byte {
	rep := RoundReply{ClientID: w.id, Round: req.Round, Err: "chaos: injected flake"}
	return marshalReply(buf, &rep, req.Anchor, &w.sc, req.TopK)
}

// Close terminates the connection (Serve will then return).
func (w *Worker) Close() error { return w.conn.Close() }
