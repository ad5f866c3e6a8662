package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
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
// rests on.
type AggregatorNode struct {
	shardID int
	lo      int
	devices []*engine.Device // devices[i].ID == lo+i
	counts  []float64        // raw per-device sample counts D_n, by local index
	samples int64            // Σ counts
	seed    int64
	addr    string
	conn    net.Conn

	fr   frameReader
	fw   frameWriter
	req  RoundRequest
	wbuf []byte

	partial []float64 // Σ D_n·w_n accumulator, sized on first round
	// The node solves its devices one at a time and folds each report into
	// partial before the next solve starts, so one scratch and one report
	// buffer serve the whole shard: node memory is O(model) however many
	// virtual devices it multiplexes.
	scratch optim.Scratch
	local   []float64

	// Chaos injection against the NODE (shard-granular): ActionFor is keyed
	// by shard ID, so killing this node is the scripted equivalent of
	// dropping its whole shard for the round — which the tree conformance
	// test asserts bit-identically.
	sched  *chaos.Schedule
	cconn  *chaos.Conn
	flaked map[int]bool

	rejoinAttempts int
	rejoinBackoff  time.Duration
	outageTries    int

	rec *trace.Recorder
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
// of the shard. Chaos nodes default to rejoining after injected kills
// (40 attempts, 25ms apart); tune with SetRejoin.
func NewChaosAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*AggregatorNode, error) {
	return newAggregatorNode(addr, shardID, loDevice, shards, m, seed, sched)
}

func newAggregatorNode(addr string, shardID, loDevice int, shards []*data.Dataset, m models.Model, seed int64, sched *chaos.Schedule) (*AggregatorNode, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("transport: aggregator shard %d has no devices", shardID)
	}
	n := &AggregatorNode{
		shardID: shardID,
		lo:      loDevice,
		devices: make([]*engine.Device, len(shards)),
		counts:  make([]float64, len(shards)),
		seed:    seed,
		addr:    addr,
		sched:   sched,
	}
	for i, shard := range shards {
		n.devices[i] = engine.NewDevice(loDevice+i, shard, m, seed)
		n.counts[i] = float64(shard.N())
		n.samples += int64(shard.N())
	}
	if sched != nil {
		n.flaked = make(map[int]bool)
		n.rejoinAttempts = 40
		n.rejoinBackoff = 25 * time.Millisecond
	}
	if err := n.dial(); err != nil {
		return nil, err
	}
	return n, nil
}

// EnableTrace makes the node record a per-round shard-solve span and ship
// it in its PartialSum whenever the coordinator propagates a trace context.
// Call before Serve.
func (n *AggregatorNode) EnableTrace() { n.rec = trace.NewRecorder() }

// SetRejoin configures how persistently the node re-dials the coordinator
// after losing its connection. attempts == 0 disables rejoining.
func (n *AggregatorNode) SetRejoin(attempts int, backoff time.Duration) {
	n.rejoinAttempts = attempts
	n.rejoinBackoff = backoff
}

// dial (re)establishes the connection and performs the AggHello handshake.
func (n *AggregatorNode) dial() error {
	conn, err := net.Dial("tcp", n.addr)
	if err != nil {
		return protocolError("dial", err)
	}
	n.conn = conn
	n.cconn = nil
	if n.sched != nil {
		n.cconn = chaos.NewConn(conn)
		n.conn = n.cconn
	}
	n.fw = frameWriter{w: n.conn}
	n.fr = frameReader{r: bufio.NewReader(n.conn)}
	hello := AggHello{ShardID: n.shardID, LoDevice: n.lo, NumDevices: len(n.devices), NumSamples: n.samples}
	n.wbuf = marshalAggHello(n.wbuf[:0], &hello)
	if err := n.fw.writeFrame(n.wbuf); err != nil {
		conn.Close()
		return protocolError("hello", err)
	}
	return nil
}

// Serve processes round requests until the coordinator sends Done or the
// connection closes. A clean shutdown (Done or EOF) returns nil; with a
// rejoin policy, connection losses trigger re-dials before giving up.
func (n *AggregatorNode) Serve() error {
	defer func() { n.conn.Close() }()
	for {
		again, err := n.serveConn()
		if !again || err != nil {
			return err
		}
	}
}

func (n *AggregatorNode) serveConn() (rejoin bool, err error) {
	for {
		if err := n.recvRequest(); err != nil {
			return n.lost(err)
		}
		req := &n.req
		if req.Done {
			return false, nil
		}
		n.outageTries = 0

		if n.sched != nil {
			if ev, ok := n.sched.ActionFor(n.shardID, req.Round); ok {
				switch ev.Kind {
				case chaos.Crash, chaos.Partition:
					// Kill BEFORE any device solves: the shard's RNG streams
					// stay untouched this round, exactly like a scripted
					// dropout of the whole shard.
					n.killConn()
					return n.lost(net.ErrClosed)
				case chaos.Flake:
					if !n.flaked[req.Round] {
						n.flaked[req.Round] = true
						ps := PartialSum{ShardID: n.shardID, Round: req.Round, Err: "chaos: injected flake"}
						if err := n.sendPartial(&ps); err != nil {
							return n.lost(err)
						}
						continue
					}
				case chaos.Delay:
					n.cconn.ArmWriteDelay(ev.Delay())
				}
			}
		}

		ps := n.solveRound(req)
		if err := n.sendPartial(ps); err != nil {
			return n.lost(err)
		}
	}
}

// solveRound runs the shard fan-out for one request and builds the
// PartialSum reply. Accumulation is in ascending device order with raw
// sample counts — the canonical sharded arithmetic the flat ShardedMean
// reference and the root's PartialMean share.
func (n *AggregatorNode) solveRound(req *RoundRequest) *PartialSum {
	ps := &PartialSum{ShardID: n.shardID, Round: req.Round}
	if req.Codec != CodecFloat64 {
		ps.Err = "aggregation tree is float64-only, request asked for codec " + req.Codec.String()
		return ps
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

	traceOn := n.rec != nil && req.TraceID != 0
	var solve trace.WSpan
	if traceOn {
		n.rec.Rebase()
		solve = n.rec.Start("shard-solve", 0)
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				*ps = PartialSum{ShardID: n.shardID, Round: req.Round, Err: toErrString(r)}
			}
		}()
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
	}()
	ps.SolveSeconds = time.Since(start).Seconds()
	if traceOn {
		solve.End()
		ps.Spans = n.rec.Take()
	}
	if ps.Err != "" {
		return ps
	}
	for _, dev := range n.devices {
		ps.GradEvals += dev.GradEvals()
	}
	ps.Sum = n.partial
	return ps
}

func (n *AggregatorNode) recvRequest() error {
	typ, payload, err := n.fr.next()
	if err != nil {
		return err
	}
	if typ != msgRoundRequest {
		return errFrame("expected round request, got frame type %d", typ)
	}
	return unmarshalRequest(payload, &n.req)
}

func (n *AggregatorNode) sendPartial(ps *PartialSum) error {
	n.wbuf = marshalPartialSum(n.wbuf[:0], ps)
	return n.fw.writeFrame(n.wbuf)
}

// killConn drops the connection abruptly (RST when possible), simulating a
// node crash or network partition.
func (n *AggregatorNode) killConn() {
	if n.cconn != nil {
		n.cconn.Kill()
		return
	}
	n.conn.Close()
}

// lost mirrors Worker.lost: clean closes end Serve with nil, other errors
// propagate; with a rejoin policy the node re-dials first.
func (n *AggregatorNode) lost(cause error) (rejoin bool, err error) {
	clean := errors.Is(cause, io.EOF) || errors.Is(cause, net.ErrClosed)
	if n.rejoinAttempts <= 0 {
		if clean {
			return false, nil
		}
		return false, protocolError("recv", cause)
	}
	n.conn.Close()
	for n.outageTries < n.rejoinAttempts {
		n.outageTries++
		time.Sleep(n.rejoinBackoff)
		if err := n.dial(); err == nil {
			return true, nil
		}
	}
	if clean {
		return false, nil
	}
	return false, protocolError("recv", cause)
}

// Close terminates the connection (Serve will then return).
func (n *AggregatorNode) Close() error { return n.conn.Close() }
