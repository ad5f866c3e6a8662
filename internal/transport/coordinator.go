package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

// clientConn is one connected worker, speaking the binary protocol of
// frame.go.
//
// dead marks a connection the coordinator tore down after a network-level
// fault; a dead worker is skipped (counted as a dropout) until a
// replacement rejoins. dead is written only while holding the coordinator's
// mu (readers off the main goroutine — the rejoin accept loop — also take
// mu).
type clientConn struct {
	id   int
	conn *countingConn
	// rep is the per-connection decode target: its Local and Spans buffers
	// are reused round over round, so decoded models alias it and are valid
	// until the connection's next exchange (the engine consumes them within
	// the round; Round clones).
	fr  frameReader
	fw  frameWriter
	rep RoundReply
	// An aggregation-tree node (a Hello with the partial role) replies with
	// PartialSum frames decoded into ps (reused like rep), whose shared
	// fields exchange mirrors into rep; its round weight and device counts
	// stay in ps, read after the fan-out.
	ps PartialSum
	// hello is what the peer said: its identity, checked again on rejoin,
	// and its lease, checked against the coordinator's own by leaseCheck.
	hello Hello
	dead  bool
	// The connection's exchange goroutine (serveExchanges) runs its slot of
	// every round: wake carries the slot's index in the round's selection,
	// closing quit ends the goroutine (teardown or Close). Both are nil
	// until the connection is admitted to the cohort.
	wake chan int
	quit chan struct{}
	stop sync.Once
}

// handshake reads the Hello frame off a fresh connection. A peer that
// opens with anything else — a stray byte, another protocol — fails here as
// a framing error or at the timeout, as does a Hello with a malformed range
// or sample count. On error the caller owns closing conn.
func handshake(conn net.Conn, timeout time.Duration) (*clientConn, error) {
	counted := newCountingConn(conn)
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
	}
	cc := &clientConn{
		conn: counted,
		fr:   frameReader{r: counted},
		fw:   frameWriter{w: counted},
	}
	typ, payload, err := cc.fr.next()
	if err == nil && typ != msgHello {
		err = errFrame("expected hello, got frame type %d", typ)
	}
	if err == nil {
		cc.hello, err = unmarshalHello(payload)
	}
	if err != nil {
		return nil, protocolError("hello", err)
	}
	conn.SetReadDeadline(time.Time{})
	cc.id = cc.hello.ClientID
	return cc, nil
}

// FaultPolicy governs how the coordinator degrades when workers fail
// mid-round instead of aborting the run (the paper's partial-participation
// model: a round aggregates whichever devices report).
type FaultPolicy struct {
	// MaxRetries re-sends a round request to a worker that returned an
	// application-level error (worker-side panic, wrong-round or
	// wrong-codec reply) this many times before counting it out of the
	// round. Network-level failures (dial reset, decode error, deadline
	// exceeded) are never retried: a framed stream cannot be resynchronized
	// after a partial message, so the connection is torn down and the
	// worker may rejoin between rounds with a fresh Hello.
	MaxRetries int
	// RetryBackoff is the pause before each retry.
	RetryBackoff time.Duration
	// MinParticipants is the quorum floor: when fewer workers report, the
	// round is skipped (survivor results are discarded and the global
	// model is left unchanged) rather than aggregating a tiny cohort.
	MinParticipants int
	// MaxFailedRounds aborts the run after this many consecutive skipped
	// rounds. A fully-dead cohort (every connection torn down) aborts
	// immediately regardless.
	MaxFailedRounds int
}

// DefaultFaultPolicy is the policy a new Coordinator starts with: one retry
// per worker per round, a quorum of one, and tolerance for three
// consecutive empty rounds.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{MaxRetries: 1, RetryBackoff: 50 * time.Millisecond, MinParticipants: 1, MaxFailedRounds: 3}
}

// Coordinator is the server side of the distributed runtime. It owns the
// listener, the connected workers, and the wire protocol; the outer loop
// (selection, dropout, aggregation) is the engine's, reached through
// Executor. Per-worker faults degrade rounds instead of aborting them —
// see FaultPolicy and roundSubset.
type Coordinator struct {
	ln       net.Listener
	clients  []*clientConn // index == client ID after construction
	weights  []float64
	timeout  time.Duration
	codec    Codec
	topKFrac float64
	fault    FaultPolicy
	onFault  func(clientID int, err error)

	// Lease identity (jobs control plane): when set, only workers whose
	// Hello carries exactly (leaseJob, leaseEpoch) are admitted — at
	// construction and through the rejoin path alike. Immutable after
	// construction; see leaseCheck.
	leaseJob   string
	leaseEpoch int64

	// The fleet's shape, learned from the Hellos: tree is their one role
	// (every peer an aggregation-tree node replying with PartialSum
	// frames), devices is Σ NumDevices over the peers. actProb is the
	// per-device activation probability a tree broadcasts each round. A
	// tree root's state is O(model + shards) — it never holds per-device
	// anything.
	tree    bool
	devices int
	actProb float64

	// obsSpanBytes accumulates decoder-measured shipped-span bytes this
	// round (see RoundReply.SpanBytes), so wire accounting can subtract
	// them and stay byte-exact against the span-free closed forms.
	obsSpanBytes atomic.Int64

	// Per-round wire state, rebuilt by roundSubset on the coordinator
	// goroutine before the fan-out and then read-only: the request frame is
	// encoded once and shared by every worker, and refBuf holds the
	// dequantized anchor the delta codecs decode against.
	reqFrame []byte
	refBuf   []float64
	// rc is the fan-out state of the round in flight, reused round over
	// round so the steady-state round allocates nothing. exchanges counts
	// the live per-connection exchange goroutines; Close waits for them.
	rc        roundCtx
	exchanges sync.WaitGroup

	mu           sync.Mutex          // guards pending, dead flags cross-goroutine, retired counters
	rejoined     *sync.Cond          // signaled (on mu) when a replacement connection arrives
	pending      map[int]*clientConn // rejoined workers awaiting adoption at the next round
	retiredSent  int64               // bandwidth of replaced connections
	retiredRecv  int64
	skippedRound int // consecutive rounds below the quorum floor

	// Per-round observability, reset by resetRoundObs at the top of
	// roundSubset (before rejoin adoption, so adoptions count into the round
	// they land in). A round whose RoundSpec carries no Stats skips all of
	// it, so the off path stays free of per-round work; retries and rejoins
	// accumulate unconditionally (they are cheap) and the reset discards
	// anything recorded while off.
	obsRetries atomic.Int64     // re-sent requests this round
	obsRejoins int              // adoptions this round (guarded by mu)
	obsLat     []obs.ClientStat // indexed by position in selected; ID<0 ⇒ no report

	// evals[id] is worker id's last reported cumulative gradient-evaluation
	// count; each slot is written by the fan-out goroutine that owns the
	// worker's exchange.
	evals []int64

	// tracer records the coordinator side of the distributed trace:
	// per-worker round-trip spans, retry/rejoin/fault events, and the
	// ingestion of worker-shipped solve spans. roundSubset takes it from
	// each round's RoundSpec; nil (tracing off) is a universal no-op. The
	// *Tracer itself is goroutine-safe for the round fan-out.
	tracer *trace.Tracer
}

// SetCodec selects the wire codec for subsequent rounds (default
// CodecFloat64). Safe to change between rounds, not during one.
func (c *Coordinator) SetCodec(codec Codec) { c.codec = codec }

// SetTopKFrac sets the fraction of delta coordinates kept per round under
// CodecTopK (default DefaultTopKFraction). Safe to change between rounds,
// not during one. Fractions outside (0, 1] are rejected: above 1 the k
// would silently clamp to dim (sparsification off while still reporting
// topk-delta sizes), and non-positive values would silently fall back to
// the default.
func (c *Coordinator) SetTopKFrac(frac float64) error {
	// The inverted comparison also catches NaN, which passes both range checks.
	if !(frac > 0 && frac <= 1) {
		return fmt.Errorf("transport: topk fraction must be in (0,1], got %v", frac)
	}
	c.topKFrac = frac
	return nil
}

// SetFaultPolicy replaces the fault-handling knobs (default
// DefaultFaultPolicy). Safe to change between rounds, not during one. A
// negative MaxRetries means no retry: every worker is still asked once.
func (c *Coordinator) SetFaultPolicy(p FaultPolicy) {
	p.MinParticipants = max(p.MinParticipants, 1)
	p.MaxRetries = max(p.MaxRetries, 0)
	c.fault = p
}

// SetFaultHandler installs an observer called once per worker failure
// (after the round's fan-out has finished, on the coordinator goroutine)
// with the client ID and the error that took it out of the round.
func (c *Coordinator) SetFaultHandler(f func(clientID int, err error)) { c.onFault = f }

// Bandwidth returns the total bytes sent to and received from all workers
// so far, including connections since replaced through the rejoin path.
func (c *Coordinator) Bandwidth() (sent, received int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sent, received = c.retiredSent, c.retiredRecv
	for _, cc := range c.clients {
		sent += cc.conn.BytesSent()
		received += cc.conn.BytesReceived()
	}
	return sent, received
}

// NewCoordinatorOn builds a coordinator over an existing listener: it
// blocks until numClients peers have connected and said Hello, then
// returns. The peers are flat workers or aggregation-tree nodes, and the
// fleet is one or the other: peer IDs must be exactly 0..numClients-1, and
// their device ranges must tile [0, N) contiguously in ID order — for a
// tree the ascending-shard fold order is what makes it bit-identical to a
// flat ShardedMean over the same map. A fleet that breaks either rule,
// mixes the two roles or holds no training samples fails construction. On
// error the listener is closed.
func NewCoordinatorOn(ln net.Listener, numClients int, timeout time.Duration) (*Coordinator, error) {
	return NewLeasedCoordinatorOn(ln, numClients, timeout, "", 0)
}

// NewLeasedCoordinatorOn is NewCoordinatorOn for one jobs-control-plane
// coordinator incarnation: a worker is admitted — at construction and via
// the rejoin path — only when its Hello offers exactly (jobID, epoch). A
// worker with a stale lease is answered with a LeaseReject frame
// carrying the current values before its connection closes, so it adopts
// them and re-Hello's through its rejoin loop; this is the fence that
// keeps a worker leased to a dead incarnation from silently joining the
// next one's rounds. Epoch 0 with an empty jobID means no lease
// (equivalent to NewCoordinatorOn).
func NewLeasedCoordinatorOn(ln net.Listener, numClients int, timeout time.Duration, jobID string, epoch int64) (*Coordinator, error) {
	if numClients <= 0 {
		ln.Close()
		return nil, fmt.Errorf("transport: need at least one client")
	}
	c := &Coordinator{
		ln:         ln,
		timeout:    timeout,
		fault:      DefaultFaultPolicy(),
		pending:    make(map[int]*clientConn),
		leaseJob:   jobID,
		leaseEpoch: epoch,
	}
	c.rejoined = sync.NewCond(&c.mu)
	seen := make(map[int]bool)
	for len(c.clients) < numClients {
		conn, err := ln.Accept()
		if err != nil {
			c.Close()
			return nil, protocolError("accept", err)
		}
		cc, err := handshake(conn, timeout)
		if err != nil {
			conn.Close()
			c.Close()
			return nil, err
		}
		if !c.leaseCheck(cc) {
			// A stale-leased peer is told the current lease and closed; it
			// re-Hello's with the adopted values, so keep collecting rather
			// than aborting construction.
			continue
		}
		if cc.id < 0 || cc.id >= numClients || seen[cc.id] {
			conn.Close()
			c.Close()
			return nil, fmt.Errorf("transport: bad or duplicate client id %d", cc.id)
		}
		seen[cc.id] = true
		c.clients = append(c.clients, cc)
	}
	sort.Slice(c.clients, func(i, j int) bool { return c.clients[i].id < c.clients[j].id })
	if err := c.admitFleet(); err != nil {
		c.Close()
		return nil, err
	}
	for _, cc := range c.clients {
		c.startExchanges(cc)
	}
	// From here the listener serves the rejoin path: a restarted worker
	// re-Hellos with its old client ID and is adopted at the next round.
	go c.acceptLoop()
	return c, nil
}

// admitFleet checks the whole fleet's Hellos, sorted by ID, and derives its
// shape and aggregation weights: one role throughout, device ranges that
// tile [0, N) contiguously in ID order (a gap or overlap would silently
// drop or double-count devices), and a positive sample total.
func (c *Coordinator) admitFleet() error {
	c.tree = c.clients[0].hello.Partial
	var total int64
	for _, cc := range c.clients {
		h := &cc.hello
		switch {
		case h.Partial != c.tree:
			return fmt.Errorf("transport: peer %d and peer 0 declare different roles: a fleet is all workers or all aggregation-tree nodes", cc.id)
		case h.LoDevice != c.devices:
			return fmt.Errorf("transport: peer %d owns devices [%d,+%d), expected range to start at %d (ranges must tile contiguously in ID order)",
				cc.id, h.LoDevice, h.NumDevices, c.devices)
		case h.NumSamples > math.MaxInt64-total:
			return fmt.Errorf("transport: peer %d's sample count %d overflows the fleet total", cc.id, h.NumSamples)
		}
		c.devices += h.NumDevices
		total += h.NumSamples
	}
	if total == 0 {
		// An all-empty cohort would yield 0/0 = NaN aggregation weights
		// that silently poison the global model.
		return fmt.Errorf("transport: cohort reported no training samples (total %d)", total)
	}
	c.weights = make([]float64, len(c.clients))
	c.evals = make([]int64, len(c.clients))
	for i, cc := range c.clients {
		c.weights[i] = float64(cc.hello.NumSamples) / float64(total)
	}
	return nil
}

// startExchanges gives an admitted connection its exchange goroutine.
// Called at construction and when a rejoined connection is adopted.
func (c *Coordinator) startExchanges(cc *clientConn) {
	cc.wake = make(chan int)
	cc.quit = make(chan struct{})
	c.exchanges.Add(1)
	go c.serveExchanges(cc)
}

// stopExchanges tells cc's exchange goroutine, if it has one, to exit.
func (cc *clientConn) stopExchanges() {
	if cc.quit != nil {
		cc.stop.Do(func() { close(cc.quit) })
	}
}

// serveExchanges is a connection's exchange goroutine: it runs the
// connection's slot of each round it is woken for, and exits on quit.
func (c *Coordinator) serveExchanges(cc *clientConn) {
	defer c.exchanges.Done()
	for {
		select {
		case i := <-cc.wake:
			c.runSlot(i, cc)
			c.rc.wg.Done()
		case <-cc.quit:
			return
		}
	}
}

// VirtualDevices returns the total device count the fleet's peers own: the
// number of workers of a flat fleet, Σ shard sizes of a tree.
func (c *Coordinator) VirtualDevices() int { return c.devices }

// Tree reports the role the peers said Hello with: true for
// aggregation-tree nodes, false for flat workers.
func (c *Coordinator) Tree() bool { return c.tree }

// acceptLoop serves post-construction connections: restarted workers
// re-performing the Hello handshake. It exits when the listener closes.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handleRejoin(conn)
	}
}

// handleRejoin validates a rejoin Hello and parks the connection for
// adoption at the next round boundary. The replacement must present the ID
// of a currently-dead peer with the same role, device range and sample
// count (the aggregation weights were fixed at construction); anything else
// is rejected by closing the connection.
func (c *Coordinator) handleRejoin(conn net.Conn) {
	cc, err := handshake(conn, c.timeout)
	if err != nil {
		conn.Close()
		return
	}
	if !c.leaseCheck(cc) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc.id < 0 || cc.id >= len(c.clients) {
		conn.Close()
		return
	}
	old, h := c.clients[cc.id], &cc.hello
	if !old.dead || h.NumSamples != old.hello.NumSamples || h.Partial != old.hello.Partial ||
		h.LoDevice != old.hello.LoDevice || h.NumDevices != old.hello.NumDevices {
		conn.Close()
		return
	}
	if prev, ok := c.pending[cc.id]; ok {
		prev.conn.Close()
	}
	c.pending[cc.id] = cc
	c.rejoined.Broadcast()
}

// leaseCheck enforces the lease fence on a freshly handshaked connection.
// A coordinator without a lease admits everyone. With one, a mismatched
// Hello is rejected: the peer is first told the current lease in a
// LeaseReject frame (so it adopts the values and re-Hello's through its
// rejoin loop), then the connection closes. Returns whether the
// connection was admitted; on false the connection is already closed.
// leaseJob/leaseEpoch are immutable after construction, so no lock.
func (c *Coordinator) leaseCheck(cc *clientConn) bool {
	if c.leaseJob == "" && c.leaseEpoch == 0 {
		return true
	}
	if cc.hello.JobID == c.leaseJob && cc.hello.Epoch == c.leaseEpoch {
		return true
	}
	_ = cc.fw.writeFrame(marshalLeaseReject(nil, &LeaseReject{JobID: c.leaseJob, Epoch: c.leaseEpoch}))
	cc.conn.Close()
	return false
}

// adoptRejoined swaps pending replacement connections into the cohort.
// Called on the coordinator goroutine at each round boundary, so a round
// never observes a connection swap mid-flight.
func (c *Coordinator) adoptRejoined() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, cc := range c.pending {
		old := c.clients[id]
		c.retiredSent += old.conn.BytesSent()
		c.retiredRecv += old.conn.BytesReceived()
		c.clients[id] = cc
		c.startExchanges(cc)
		delete(c.pending, id)
		c.obsRejoins++
		if c.tracer != nil {
			c.tracer.RoundEvent("rejoin", "client "+strconv.Itoa(id))
		}
	}
	c.rejoined.Broadcast()
}

// AwaitRejoin blocks until a replacement connection for client id is live
// or pending adoption, or until timeout. It is a convenience for tests
// and operational tooling; training itself never waits — a rejoined
// worker is simply picked up at the next round. The wait parks on a
// condition variable signaled by the rejoin accept path (no polling).
func (c *Coordinator) AwaitRejoin(id int, timeout time.Duration) error {
	if id < 0 || id >= len(c.clients) {
		return fmt.Errorf("transport: no client %d", id)
	}
	deadline := time.Now().Add(timeout)
	// sync.Cond has no timed wait; a timer broadcast wakes the loop so it
	// can observe the deadline. Taking mu orders the wakeup after the
	// waiter is parked, so the broadcast cannot be lost.
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.rejoined.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if _, queued := c.pending[id]; queued || !c.clients[id].dead {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("transport: client %d did not rejoin within %v", id, timeout)
		}
		c.rejoined.Wait()
	}
}

// Addr returns the listener address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Weights returns the aggregation weights D_n/D gathered from the Hellos.
func (c *Coordinator) Weights() []float64 { return c.weights }

// errWorkerDown marks a worker skipped because its connection was already
// torn down in an earlier round (it counts as a dropout, not a new fault).
var errWorkerDown = fmt.Errorf("transport: worker connection is down")

// errStraggler wraps a network timeout attributable to the round deadline
// or a quorum cut rather than the flat per-connection timeout: the worker
// is healthy but late. Its connection is still torn down (the wire cannot
// abandon a mid-flight exchange), and it rejoins between rounds.
var errStraggler = errors.New("transport: cut from the round as a straggler")

// errRoundCut marks a worker that was between retry attempts when the
// round was cut. Unlike errStraggler the stream is still framed (the last
// reply was fully read), so the connection survives into the next round.
var errRoundCut = errors.New("transport: round over before retry")

// roundCtx is the fan-out state of one round, owned by the coordinator and
// reused across rounds. roundSubset writes it before waking the exchange
// goroutines; during the fan-out they read the shared fields and write only
// their own slot of locals, errs and done.
type roundCtx struct {
	round  int
	codec  Codec
	dim    int
	spanID uint64    // the round span shipped worker spans are parented under
	frame  []byte    // the request frame, encoded once, shared read-only
	ref    []float64 // dequantized anchor (delta reference), read-only
	obsOn  bool      // record per-client latencies (RoundSpec.Stats set)

	// Straggler policy: the ctx deadline bounds every exchange, and a
	// quorum > 0 cuts the round once that many workers have reported.
	deadline time.Time
	hasDL    bool
	quorum   int
	cut      atomic.Bool
	reported atomic.Int64
	done     []atomic.Bool // per slot, set when its exchange ends (quorum only)

	selected []int
	locals   [][]float64 // per slot: the reported model, nil on failure
	errs     []error     // per slot: why the worker did not report
	wg       sync.WaitGroup
}

// roundSubset runs one round against spec.Selected only (partial
// participation), filling res.Locals[i] with the reported model of
// spec.Selected[i] — nil when that worker did not report — and c.evals[id]
// with each reporting worker's cumulative gradient evaluations. Models
// alias per-connection decode buffers, valid until that connection's next
// exchange (the engine's Executor contract).
//
// Per-worker faults are converted into dropouts: application-level errors
// are retried per FaultPolicy, network-level errors tear the connection
// down (the worker may rejoin between rounds), and the survivors are
// returned. The returned error is non-nil only when the run cannot
// continue: the whole cohort is dead, or fewer than MinParticipants
// reported for more than MaxFailedRounds consecutive rounds.
//
// The straggler policy arrives through ctx and spec.MinReport: a ctx
// deadline bounds every in-flight exchange (per-message deadlines are
// clamped to it), and a quorum > 0 cuts the round as soon as that many
// workers have reported, force-expiring the laggards' connections. Workers
// cut either way are counted in res.Stragglers, not as failures. Mid-round
// cancellation of a deadline-less ctx is deliberately not propagated —
// tearing down healthy connections on a Ctrl-C between rounds would turn a
// clean stop into a fault storm; the engine already stops between rounds.
func (c *Coordinator) roundSubset(ctx context.Context, local optim.LocalConfig, spec engine.RoundSpec, res *engine.RoundResult) error {
	round, anchor, selected, quorum := spec.Round, spec.Anchor, spec.Selected, spec.MinReport
	locals := res.Reset(len(selected))
	c.tracer = spec.Tracer
	obsOn := spec.Stats != nil
	if obsOn {
		c.resetRoundObs(len(selected))
	}
	c.adoptRejoined()
	topK := 0
	if c.codec == CodecTopK {
		topK = TopKFor(c.topKFrac, len(anchor))
	}
	// The request carries the full-precision anchor (marshalRequest
	// quantizes per codec); it is encoded once here and the same bytes go
	// to every worker. ref is the anchor exactly as workers decode it — the
	// delta codecs reconstruct replies against it.
	req := RoundRequest{Round: round, Codec: c.codec, Anchor: anchor, Local: local, TopK: topK, ActivateProb: c.actProb}
	tr := c.tracer
	if tr != nil {
		// Propagate the trace context: workers parent their solve spans
		// under the engine's current round span. The request is shared by
		// every worker, so the propagated parent is the round, and each
		// worker's spans are told apart by their process row on ingest.
		req.TraceID = tr.TraceID()
		req.SpanID = tr.CurrentRound()
	}
	c.reqFrame = marshalRequest(c.reqFrame[:0], &req)
	ref := anchor
	if c.codec != CodecFloat64 {
		c.refBuf = codecReference(c.codec, anchor, c.refBuf)
		ref = c.refBuf
	}
	rc := &c.rc
	rc.round, rc.codec, rc.dim, rc.spanID = round, c.codec, len(anchor), req.SpanID
	rc.frame, rc.ref, rc.obsOn = c.reqFrame, ref, obsOn
	rc.deadline, rc.hasDL = ctx.Deadline()
	rc.selected, rc.locals = selected, locals
	rc.errs = resetSlots(rc.errs, len(selected))
	rc.cut.Store(false)

	// Quorum: exchanges count themselves in as they report, and the one
	// that reaches the quorum cuts the round (cutStragglers).
	inFlight := 0
	for _, id := range selected {
		if !c.clients[id].dead {
			inFlight++
		}
	}
	rc.quorum = 0
	if quorum > 0 && quorum < inFlight {
		rc.quorum = quorum
		rc.reported.Store(0)
		rc.done = resetSlots(rc.done, len(selected))
	}

	for i, id := range selected {
		cc := c.clients[id]
		if cc.dead {
			rc.errs[i] = errWorkerDown
			continue
		}
		rc.wg.Add(1)
		select {
		case cc.wake <- i:
		case <-cc.quit:
			// Closed under a running round: the slot fails like a dropped
			// connection.
			rc.errs[i] = net.ErrClosed
			rc.wg.Done()
		}
	}
	rc.wg.Wait()
	errs := rc.errs

	teardown := func(cc *clientConn) {
		if cc.dead {
			return
		}
		// The stream is unusable after a failed exchange (the framing does
		// not resynchronize past a partial message): tear the connection
		// down. The worker rejoins with a fresh Hello on a new connection,
		// which gets a new exchange goroutine.
		cc.conn.Close()
		cc.stopExchanges()
		c.mu.Lock()
		cc.dead = true
		c.mu.Unlock()
	}
	reported := 0
	for i, werr := range errs {
		if werr == nil {
			reported++
			continue
		}
		cc := c.clients[selected[i]]
		switch {
		case werr == errWorkerDown:
			if tr != nil {
				tr.RoundEvent("worker-down", "client "+strconv.Itoa(cc.id))
			}
		case errors.Is(werr, errRoundCut):
			// Caught between retry attempts by the cut: the stream is still
			// framed, so the connection survives into the next round.
			res.Stragglers++
			if tr != nil {
				tr.RoundEvent("straggler-cut", "client "+strconv.Itoa(cc.id)+" (between retries)")
			}
		case errors.Is(werr, errStraggler):
			res.Stragglers++
			teardown(cc)
			if tr != nil {
				tr.RoundEvent("straggler-cut", "client "+strconv.Itoa(cc.id))
			}
		default:
			teardown(cc)
			if tr != nil {
				tr.RoundEvent("worker-fault", "client "+strconv.Itoa(cc.id)+": "+werr.Error())
			}
			if c.onFault != nil {
				c.onFault(cc.id, werr)
			}
		}
	}
	if c.liveWorkers() == 0 {
		return fmt.Errorf("transport: round %d: every worker is dead (last error: %w)", round, firstError(errs))
	}
	if reported < c.fault.MinParticipants {
		// Below quorum: discard the round (survivor results included) so
		// the engine leaves the global model unchanged; every device counts
		// as failed.
		for i := range selected {
			locals[i] = nil
		}
		res.Stragglers = 0
		c.skippedRound++
		if c.skippedRound > c.fault.MaxFailedRounds {
			return fmt.Errorf("transport: %d consecutive rounds below the %d-participant quorum (last error: %w)",
				c.skippedRound, c.fault.MinParticipants, firstError(errs))
		}
		return nil
	}
	c.skippedRound = 0
	return nil
}

// runSlot is one worker's part of the round fan-out, run on its
// connection's exchange goroutine: the exchange with retries, its latency
// record, and — under a quorum — the count toward the cut.
func (c *Coordinator) runSlot(i int, cc *clientConn) {
	rc := &c.rc
	// The round-trip span covers send → reply (retries included) on the
	// worker's client lane; ingested solve spans nest inside it on the
	// timeline even though their tree parent is the round.
	sp := c.tracer.StartClient(cc.id)
	defer sp.End()
	var t0 time.Time
	if rc.obsOn {
		t0 = time.Now()
	}
	vec, solve, err := c.askWorker(cc, rc)
	if rc.obsOn && err == nil {
		// Distinct goroutines write distinct i — no lock needed.
		c.obsLat[i] = obs.ClientStat{ID: cc.id, Seconds: time.Since(t0).Seconds(), SolveSeconds: solve}
	}
	rc.locals[i], rc.errs[i] = vec, err
	if rc.quorum > 0 {
		rc.done[i].Store(true)
		if err == nil && rc.reported.Add(1) == int64(rc.quorum) {
			c.cutStragglers(rc)
		}
	}
}

// cutStragglers ends a round at quorum: it force-expires the connections
// still exchanging, whose blocked reads then fail with a timeout that
// exchange classifies as a straggler cut. Finished slots are left alone.
func (c *Coordinator) cutStragglers(rc *roundCtx) {
	rc.cut.Store(true)
	past := time.Now().Add(-time.Hour)
	for i, id := range rc.selected {
		if !rc.done[i].Load() {
			c.clients[id].conn.SetDeadline(past)
		}
	}
}

// resetSlots returns s resized to n zero values, reusing its backing array.
func resetSlots[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// askWorker performs one worker's round exchange with bounded retry.
// solveSec is the worker-reported local-solve duration of the successful
// attempt (zero on failure). Retries are abandoned once the round is cut
// (quorum reached or the round deadline passed) — the reply would be
// discarded anyway.
func (c *Coordinator) askWorker(cc *clientConn, rc *roundCtx) (vec []float64, solveSec float64, err error) {
	var lastErr error
	for attempt := 0; attempt <= c.fault.MaxRetries; attempt++ {
		if attempt > 0 {
			if rc.cut.Load() || (rc.hasDL && !time.Now().Before(rc.deadline)) {
				return nil, 0, errRoundCut
			}
			c.obsRetries.Add(1)
			if c.tracer != nil {
				c.tracer.RoundEvent("retry", "client "+strconv.Itoa(cc.id)+" attempt "+strconv.Itoa(attempt))
			}
			if c.fault.RetryBackoff > 0 {
				time.Sleep(c.fault.RetryBackoff)
			}
		}
		vec, solve, err, retriable := c.exchange(cc, rc)
		if err == nil {
			return vec, solve, nil
		}
		lastErr = err
		if !retriable {
			break
		}
	}
	return nil, 0, lastErr
}

// exchange is a single request/reply attempt: the round's request frame
// goes down, and a RoundReply (from a worker) or a PartialSum (from a tree
// shard node, whose vec is the shard's Σ D_n·w_n) comes back. retriable
// distinguishes application-level failures (a peer's panic, a wrong-round
// or wrong-codec reply — the stream is still framed, so a resend can
// succeed) from network-level ones (the stream is torn; the caller must
// drop the connection). The per-message deadline is the flat timeout clamped to the
// round deadline; a timeout attributable to the round deadline or a quorum
// cut is wrapped in errStraggler so the caller can tell a late worker from
// a dead one.
func (c *Coordinator) exchange(cc *clientConn, rc *roundCtx) (vec []float64, solveSec float64, err error, retriable bool) {
	var dl time.Time
	if c.timeout > 0 {
		dl = time.Now().Add(c.timeout)
	}
	dlIsRound := false
	if rc.hasDL && (dl.IsZero() || rc.deadline.Before(dl)) {
		dl = rc.deadline
		dlIsRound = true
	}
	if !dl.IsZero() {
		cc.conn.SetDeadline(dl)
		// Clear the absolute deadline on every exit path: a deadline left
		// armed after an error would spuriously time out the next round.
		defer cc.conn.SetDeadline(time.Time{})
	}
	wrap := func(op string, cause error) error {
		perr := protocolError(fmt.Sprintf("%s client %d", op, cc.id), cause)
		var ne net.Error
		if errors.As(cause, &ne) && ne.Timeout() && (dlIsRound || rc.cut.Load()) {
			return fmt.Errorf("%w: %v", errStraggler, perr)
		}
		return perr
	}
	// The send time is the coordinator-side base for re-basing the worker's
	// request-relative span times onto this trace's timeline (no clock
	// synchronization between the processes is assumed).
	var sentAt time.Time
	if c.tracer != nil {
		sentAt = time.Now()
	}
	peer, proc, want, what := "client", "worker-", byte(msgRoundReply), "round reply"
	if c.tree {
		peer, proc, want, what = "shard", "shard-", msgPartialSum, "partial sum"
	}
	if err := cc.fw.writeFrame(rc.frame); err != nil {
		return nil, 0, wrap("send to", err), false
	}
	// The decode is all that differs between the two reply frames: a
	// PartialSum's shared fields are mirrored into cc.rep, so everything
	// below checks one reply. The reply aliases the connection's decode
	// buffers, valid until its next read.
	rep := &cc.rep
	typ, payload, err := cc.fr.next()
	switch {
	case err != nil:
	case typ != want:
		err = errFrame("expected %s, got frame type %d", what, typ)
	case c.tree:
		err = cc.decodePartial(payload)
	default:
		err = unmarshalReply(payload, rep, rc.ref)
	}
	if err != nil {
		return nil, 0, wrap("recv from", err), false
	}
	if rep.SpanBytes > 0 {
		c.obsSpanBytes.Add(int64(rep.SpanBytes))
	}
	if rep.Err != "" {
		return nil, 0, fmt.Errorf("transport: %s %d: %s", peer, cc.id, rep.Err), true
	}
	if rep.Round != rc.round {
		return nil, 0, fmt.Errorf("transport: %s %d replied for round %d, want %d",
			peer, cc.id, rep.Round, rc.round), true
	}
	if rep.Codec != rc.codec {
		// Enforce the same-codec contract instead of silently dequantizing
		// whatever arrived: a mixed-codec aggregate would blend different
		// error floors without anything flagging it.
		return nil, 0, fmt.Errorf("transport: %s %d replied in codec %v, want %v",
			peer, cc.id, rep.Codec, rc.codec), true
	}
	if len(rep.Local) != rc.dim {
		return nil, 0, fmt.Errorf("transport: %s %d sent %d params, want %d",
			peer, cc.id, len(rep.Local), rc.dim), true
	}
	c.evals[cc.id] = rep.GradEvals
	if c.tracer != nil && len(rep.Spans) > 0 {
		c.tracer.IngestWire(rep.Spans, rc.spanID, proc+strconv.Itoa(cc.id), sentAt)
	}
	return rep.Local, rep.SolveSeconds, nil, false
}

// decodePartial decodes a PartialSum into cc.ps and mirrors the fields every
// reply shares into cc.rep: the shard's Σ D_n·w_n becomes the reported
// model (aliasing cc.ps.Sum, the same contract as a worker's decoded
// Local), and the codec is float64, the only one partial sums travel in.
func (cc *clientConn) decodePartial(payload []byte) error {
	ps := &cc.ps
	if err := unmarshalPartialSum(payload, ps); err != nil {
		return err
	}
	cc.rep = RoundReply{
		ClientID: ps.ShardID, Round: ps.Round, Codec: CodecFloat64, Local: ps.Sum,
		GradEvals: ps.GradEvals, SolveSeconds: ps.SolveSeconds, Err: ps.Err,
		Spans: ps.Spans, SpanBytes: ps.SpanBytes,
	}
	return nil
}

// resetRoundObs clears the per-round observability state for a round with n
// selected workers. Runs before adoptRejoined so adoptions land in the round
// being measured; also discards any retry/rejoin counts accumulated while
// observability was off.
func (c *Coordinator) resetRoundObs(n int) {
	c.obsRetries.Store(0)
	c.obsSpanBytes.Store(0)
	c.mu.Lock()
	c.obsRejoins = 0
	c.mu.Unlock()
	if cap(c.obsLat) < n {
		c.obsLat = make([]obs.ClientStat, n)
	}
	c.obsLat = c.obsLat[:n]
	for i := range c.obsLat {
		c.obsLat[i] = obs.ClientStat{ID: -1}
	}
}

// collectRoundObs folds the last round's retry/rejoin counts and per-client
// latencies into rs. Latency entries exist only for workers that reported
// (ID ≥ 0); a below-quorum round keeps the survivors' latencies even though
// their models were discarded — the work and the bytes were real.
func (c *Coordinator) collectRoundObs(rs *obs.RoundStats) {
	rs.Retries += int(c.obsRetries.Load())
	rs.SpanBytes += c.obsSpanBytes.Load()
	c.mu.Lock()
	rs.Rejoins += c.obsRejoins
	c.mu.Unlock()
	for _, s := range c.obsLat {
		if s.ID >= 0 {
			rs.Clients = append(rs.Clients, s)
		}
	}
}

// liveWorkers counts the connections not torn down (pending rejoins count:
// they become live at the next round boundary).
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pending)
	for _, cc := range c.clients {
		if !cc.dead {
			n++
		}
	}
	return n
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil && err != errWorkerDown {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("no worker error recorded")
}

// Executor adapts the coordinator to the engine's Executor interface: each
// RunRound is one wire round against the selected workers.
type Executor struct {
	c     *Coordinator
	local optim.LocalConfig
	tally engine.Tally // device-level rollup of the last tree round
}

var _ engine.Executor = (*Executor)(nil)

// Executor returns an engine backend that drives this coordinator's
// workers with the given local configuration.
func (c *Coordinator) Executor(local optim.LocalConfig) *Executor {
	return &Executor{c: c, local: local}
}

// RunRound implements engine.Executor, including its partial-result
// contract: a nil res.Locals[i] means worker spec.Selected[i] failed the
// round — or, counted in res.Stragglers, was cut when ctx's deadline fired
// or spec.MinReport workers had reported — and the engine aggregates the
// survivors. The error is non-nil only when the run cannot continue (dead
// cohort, exhausted quorum). spec.Round is the wire round number, which
// workers re-key their device RNG streams from: a coordinator resuming a
// checkpointed job at round t sends round t, and every worker's round-t
// draws match the uninterrupted run's.
//
// With spec.Stats set the record gets this round's wire-byte deltas
// (retired connections included, via Bandwidth; the Hello handshake
// predates the first round and is never counted), the coordinator's
// retry/rejoin counts, the active codec, and per-client round-trip and
// solve latencies.
func (x *Executor) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	c := x.c
	var sent0, recv0 int64
	if spec.Stats != nil {
		sent0, recv0 = c.Bandwidth()
	}
	if err := c.roundSubset(ctx, x.local, spec, res); err != nil {
		return err
	}
	res.GradEvals = 0
	for _, e := range c.evals {
		res.GradEvals += e
	}
	if st := spec.Stats; st != nil {
		sent, recv := c.Bandwidth()
		st.BytesSent += sent - sent0
		st.BytesRecv += recv - recv0
		st.Codec = c.codec.String()
		if c.tree {
			// The engine counts shard connections; roll the shards'
			// PartialSum accounting up to device-level totals for the
			// record. A shard reported when its slot's exchange succeeded
			// (a below-quorum round included); one whose exchange failed
			// contributes nothing (its devices' fate is unknown to the
			// root — by design it holds no per-device state). Adoption
			// happens only at round start, so c.clients[id] is the
			// connection that exchanged.
			x.tally = engine.Tally{}
			for i, id := range c.rc.selected {
				if c.rc.errs[i] != nil {
					continue
				}
				ps := &c.clients[id].ps
				st.Shards++
				x.tally.Participants += ps.Devices
			}
			res.Devices = &x.tally
		}
		c.collectRoundObs(st)
	}
	return nil
}

// shardWeight reports shard id's Σ D_n for the current round: raw sample
// counts over its reporting devices, zero when the whole shard sat out. It
// is the weight a PartialMean root folds with (see Engine), which asks only
// for shards that reported, so the connection's last decoded PartialSum is
// this round's.
func (c *Coordinator) shardWeight(id int) float64 { return c.clients[id].ps.Weight }

// Engine builds a ready-to-run engine over this coordinator's workers;
// drive it with Run and read the model with Global. If evalModel is given,
// per-round loss over trainSets (and, with cfg.Test, test accuracy) is
// measured server-side (the coordinator needs the data only for
// evaluation; training data never leaves workers in a real deployment —
// pass nil to skip).
//
// On a tree coordinator (a fleet of AggregatorNodes) the engine's
// "cohort" is the shards, every shard is addressed every round (full
// participation at the root), and the root aggregator is a PartialMean
// folding the shards' pre-weighted partial sums in ascending shard order —
// bit-identical to a flat ShardedMean over the same shard map.
// cfg.ActivateProb is lifted off the engine and broadcast to the nodes
// instead, which evaluate the per-device activation over their own ranges;
// per-device sampling, dropout injection and training shards to measure
// are rejected because the root never sees devices, so training loss is
// NaN. The root's aggregator is the tree's own: replacing it with
// SetAggregator would fold partial sums as if they were models.
func (c *Coordinator) Engine(w0 []float64, cfg engine.Config, evalModel models.Model, trainSets []*data.Dataset) (*engine.Engine, error) {
	if c.tree {
		if err := c.treeConfig(&cfg, trainSets); err != nil {
			return nil, err
		}
	}
	x := c.Executor(cfg.Local)
	eng, err := engine.New(cfg, len(w0), c.weights, x)
	if err != nil {
		return nil, err
	}
	if c.tree {
		eng.SetAggregator(engine.NewPartialMean(len(w0), c.shardWeight))
	}
	eng.SetGlobal(w0)
	if evalModel != nil {
		eng.SetEvaluator(&engine.Evaluator{
			Model:   evalModel,
			Clients: trainSets,
			Weights: c.weights,
			Test:    cfg.Test,
		})
	}
	return eng, nil
}

// treeConfig refuses what a tree root cannot honor and lifts
// cfg.ActivateProb off the engine onto the nodes' broadcast.
func (c *Coordinator) treeConfig(cfg *engine.Config, trainSets []*data.Dataset) error {
	switch {
	case c.codec != CodecFloat64:
		return fmt.Errorf("transport: the aggregation tree is float64-only (partial sums must stay exact), coordinator codec is %v", c.codec)
	case cfg.DropoutProb > 0:
		return fmt.Errorf("transport: engine-side dropout injection over the tree would drop whole shards, not devices; use -activate-prob or chaos schedules on the nodes")
	case cfg.ClientFraction != 0 && cfg.ClientFraction != 1:
		return fmt.Errorf("transport: ClientFraction sampling over the tree would sample shards, not devices; use ActivateProb")
	case cfg.ActivateProb < 0 || cfg.ActivateProb > 1:
		return fmt.Errorf("transport: ActivateProb must be in [0,1], got %v", cfg.ActivateProb)
	case trainSets != nil:
		return fmt.Errorf("transport: the tree root holds no training shards to measure loss over")
	}
	c.actProb = cfg.ActivateProb
	cfg.ActivateProb = 0
	return nil
}

// Shutdown tells every live worker (including pending rejoins) to exit
// cleanly. Dead connections are skipped.
func (c *Coordinator) Shutdown() {
	c.adoptRejoined()
	doneFrame := marshalRequest(nil, &RoundRequest{Done: true})
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.clients {
		if cc.dead {
			continue
		}
		_ = cc.fw.writeFrame(doneFrame)
	}
}

// Close shuts the listener (stopping the rejoin accept loop) and all
// connections, pending rejoins included, and returns once every
// connection's exchange goroutine has exited.
func (c *Coordinator) Close() error {
	err := c.ln.Close()
	c.mu.Lock()
	for _, cc := range c.clients {
		cc.conn.Close()
		cc.stopExchanges()
	}
	for _, cc := range c.pending {
		cc.conn.Close()
	}
	c.mu.Unlock()
	c.exchanges.Wait()
	return err
}
