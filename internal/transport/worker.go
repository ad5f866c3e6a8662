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
}

// NewWorker builds the worker for device id without dialing: configure it
// through the session's setters (SetChaos, SetLease, SetRejoin,
// EnableTrace), then Serve dials addr and performs the Hello handshake. The
// same sequence is the rejoin path: a worker restarted after a crash dials
// the coordinator again with its old client ID and shard, and is adopted
// back into the cohort at the next round boundary. The device RNG is
// re-keyed from each request's round number (a pure (seed, id, round) hash
// — see engine.Device.BeginRound), so a restarted worker's draws for round
// t are identical to the original process's: a run with a rejoined worker
// is bit-identical to the equivalent scripted-dropout run, and survives a
// coordinator restart the same way. The error is always nil.
func NewWorker(addr string, id int, shard *data.Dataset, m models.Model, seed int64) (*Worker, error) {
	w := &Worker{
		session: session{
			id:    id,
			hello: Hello{ClientID: id, LoDevice: id, NumDevices: 1, NumSamples: int64(shard.N())},
			addr:  addr,
		},
		device: engine.NewDevice(id, shard, m, seed),
	}
	w.role = w
	return w, nil
}

// solve runs the device's local solve for req into w.rep, corrupting the
// reported model when ev is a Corrupt event.
func (w *Worker) solve(req *RoundRequest, ev chaos.Event) string {
	w.rep = RoundReply{ClientID: w.id, Round: req.Round, Codec: req.Codec}
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
