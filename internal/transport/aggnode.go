package transport

import (
	"fmt"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
)

// AggregatorNode is an interior node of the aggregation tree: one process
// that multiplexes a contiguous shard of virtual devices, runs the round
// fan-out over them in-process, and streams a single PartialSum —
// Σ D_n·w_n over the shard's reporting devices plus the shard's round
// weight Σ D_n — up to the tree coordinator. The root therefore holds
// O(model + shards) state no matter how many devices the tree drives.
//
// Device RNG streams are derived exactly as a flat run derives them
// (engine.NewDevice with the GLOBAL device ID), and the shard's partial
// sum is accumulated with raw sample counts in ascending device order —
// the same operation sequence as a flat ShardedMean over the same shard
// map — so a tree run is bit-identical to the flat reference for the same
// seed. Probabilistic activation (RoundRequest.ActivateProb) is evaluated
// locally per device from the pure (seed, round, id) hash, no
// coordination needed.
//
// The node speaks the framed wire only, and only CodecFloat64: quantizing
// a partial sum would break the exactness the tree's conformance story
// rests on. Its session — connection, chaos, rejoin, tracing — is the one
// Worker runs, keyed by the shard ID.
type AggregatorNode struct {
	session
	lo      int
	devices []*engine.Device // devices[i].ID == lo+i
	counts  []float64        // raw per-device sample counts D_n, by local index
	seed    int64

	ps      PartialSum // the pending reply solve fills
	partial []float64  // Σ D_n·w_n accumulator, sized on first round
	// The node solves its devices one at a time and folds each report into
	// partial before the next solve starts, so one scratch and one report
	// buffer serve the whole shard: node memory is O(model) however many
	// virtual devices it multiplexes.
	scratch optim.Scratch
	local   []float64
}

// NewAggregatorNode connects to the tree coordinator at addr and announces
// shard shardID owning devices [loDevice, loDevice+len(shards)) — shards[i]
// is the data of global device loDevice+i. The same call is the rejoin
// path after a connection loss (see SetRejoin).
func NewAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64) (*AggregatorNode, error) {
	return newAggregatorNode(addr, shardID, loDevice, shards, m, seed, nil)
}

// NewChaosAggregatorNode is NewAggregatorNode with a fault schedule keyed
// by shard ID: before each round's fan-out the node looks up
// ActionFor(shardID, round) and enforces it on the wire — killing the
// connection (Crash/Partition), failing once (Flake), or delaying its
// reply (Delay) — always BEFORE any device solves, so the shard's device
// RNG streams stay untouched that round exactly like a scripted dropout
// of the shard. A Corrupt event on the shard is refused: a corrupted
// partial sum has no in-process reference to match. Chaos nodes default
// to rejoining after injected kills (40 attempts, 25ms apart); tune with
// SetRejoin. sched must be non-nil.
func NewChaosAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*AggregatorNode, error) {
	for _, ev := range sched.Events {
		if ev.Kind == chaos.Corrupt && ev.Device == shardID {
			return nil, fmt.Errorf("transport: aggregator shard %d cannot enforce chaos event %q on device %d in round %d: "+
				"a corrupted partial sum has no in-process reference (nodes enforce crash, partition, flake and delay)",
				shardID, ev.Kind, ev.Device, ev.Round)
		}
	}
	return newAggregatorNode(addr, shardID, loDevice, shards, m, seed, sched)
}

func newAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*AggregatorNode, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("transport: aggregator shard %d has no devices", shardID)
	}
	n := &AggregatorNode{
		session: session{
			id:    shardID,
			hello: Hello{ClientID: shardID, LoDevice: loDevice, NumDevices: len(shards), Partial: true},
			addr:  addr, sched: sched,
		},
		lo:      loDevice,
		devices: make([]*engine.Device, len(shards)),
		counts:  make([]float64, len(shards)),
		seed:    seed,
	}
	for i, shard := range shards {
		n.devices[i] = engine.NewDevice(loDevice+i, shard, m, seed)
		n.counts[i] = float64(shard.N())
		n.hello.NumSamples += int64(shard.N())
	}
	if err := n.connect(n); err != nil {
		return nil, err
	}
	return n, nil
}

// solve runs the shard fan-out for req into n.ps. Accumulation is in
// ascending device order with raw sample counts — the canonical sharded
// arithmetic the flat ShardedMean reference and the root's PartialMean
// share. The node refuses Corrupt events at construction, so ev never
// needs enforcing here.
func (n *AggregatorNode) solve(req *RoundRequest, _ chaos.Event) string {
	ps := &n.ps
	*ps = PartialSum{ShardID: n.id, Round: req.Round}
	if req.Codec != CodecFloat64 {
		return "aggregation tree is float64-only, request asked for codec " + req.Codec.String()
	}
	anchor := req.Anchor
	if cap(n.partial) < len(anchor) {
		n.partial = make([]float64, len(anchor))
	}
	n.partial = n.partial[:len(anchor)]
	mathx.Zero(n.partial)
	if len(n.local) != len(anchor) {
		n.local = make([]float64, len(anchor))
	}

	solve, traceOn := n.startSpan(req, "shard-solve")
	start := time.Now()
	for i, dev := range n.devices {
		if req.ActivateProb > 0 && !engine.Activated(n.seed, req.Round, n.lo+i, req.ActivateProb) {
			continue
		}
		dev.BeginRound(req.Round)
		dev.RunRound(&n.scratch, anchor, n.local, req.Local)
		mathx.Axpy(n.counts[i], n.local, n.partial)
		ps.Weight += n.counts[i]
		ps.Devices++
	}
	ps.SolveSeconds = time.Since(start).Seconds()
	if traceOn {
		solve.End()
		ps.Spans = n.rec.Take()
	}
	for _, dev := range n.devices {
		ps.GradEvals += dev.GradEvals()
	}
	ps.Sum = n.partial
	return ""
}

// appendReply appends n.ps; a failed PartialSum carries only its shard,
// round and message on the wire.
func (n *AggregatorNode) appendReply(buf []byte, _ *RoundRequest, errMsg string) []byte {
	n.ps.Err = errMsg
	return marshalPartialSum(buf, &n.ps)
}

func (n *AggregatorNode) appendFlake(buf []byte, req *RoundRequest) []byte {
	ps := PartialSum{ShardID: n.id, Round: req.Round, Err: "chaos: injected flake"}
	return marshalPartialSum(buf, &ps)
}
