package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/trace"
)

// peerRole is what a participant of the round exchange supplies to the
// session it runs: a Worker speaks for one device and answers with a
// RoundReply, an AggregatorNode speaks for a shard of devices and answers
// with a PartialSum. Everything else — dialing, the Hello, the request
// loop, chaos enforcement, lease adoption, rejoin, tracing — is the
// session's.
type peerRole interface {
	// solve runs the round body for req into the role's pending reply. ev is
	// the chaos event firing this round (zero when none); the session has
	// already enforced every kind but Corrupt. A non-empty return fails the
	// round with that message.
	solve(req *RoundRequest, ev chaos.Event) (errMsg string)
	// appendReply appends the pending reply to buf, failed with errMsg when
	// it is non-empty (a solve error or a recovered panic).
	appendReply(buf []byte, req *RoundRequest, errMsg string) []byte
	// appendFlake appends the reply of an injected flake for req to buf.
	appendFlake(buf []byte, req *RoundRequest) []byte
}

// session is the participant side of the coordinator exchange, shared by
// both peers. A peer is built without dialing, configured through the
// session's setters (SetChaos, SetLease, SetRejoin, EnableTrace) and then
// run by Serve, which makes the first dial. Its read and write buffers are
// reused round over round, so the steady-state loop does not allocate for
// the wire.
type session struct {
	role peerRole
	// id is the ID the peer says hello with — a client ID or a shard ID —
	// and the one its fault schedule is keyed by. hello is the peer's
	// identity (ID, device range, sample count, role), sent with the
	// current lease on every dial.
	id    int
	hello Hello
	addr  string

	// mu guards conn and closed, the fields Close touches from another
	// goroutine; the Serve goroutine, the only writer, reads them bare.
	mu     sync.Mutex
	conn   net.Conn
	closed bool

	fr   frameReader
	fw   frameWriter
	req  RoundRequest
	wbuf []byte

	// Chaos injection (nil for plain peers). cconn is the chaos wrapper
	// around conn when sched != nil, kept so Delay events can arm it.
	sched *chaos.Schedule
	cconn *chaos.Conn
	// flaked remembers rounds whose injected flake already fired, so the
	// coordinator's retry of the same round succeeds (flake-once semantics).
	flaked map[int]bool

	// Lease (jobs control plane), offered in the peer's every Hello. When
	// the coordinator answers with a LeaseReject, the peer adopts the told
	// values before re-dialing — see recvRequest and lost.
	leaseJob   string
	leaseEpoch int64

	// Rejoin policy: after a connection loss the peer re-dials the
	// coordinator up to rejoinAttempts times, spaced by rejoinBackoff, and is
	// adopted back at the next round boundary. Zero attempts, the default
	// for a plain peer, ends Serve on the first loss. rejoinSet records a
	// SetRejoin call, which overrides the chaos and lease default.
	rejoinAttempts int
	rejoinBackoff  time.Duration
	rejoinSet      bool
	outageTries    int

	// rec, when non-nil, records the round body's spans relative to each
	// request's receipt and ships them back in the reply — but only for
	// requests that carry a TraceID, so a tracing peer against a
	// non-tracing coordinator sends nothing extra.
	rec *trace.Recorder
}

// EnableTrace makes the peer record its round body's trace spans and return
// them in its replies whenever the coordinator propagates a trace context
// (RoundRequest.TraceID != 0). Call before Serve.
func (s *session) EnableTrace() { s.rec = trace.NewRecorder() }

// SetRejoin configures how persistently the peer re-dials the coordinator
// after losing its connection. attempts == 0 disables rejoining. Without a
// call a plain peer does not rejoin, and a peer with a fault schedule or a
// lease re-dials 40 times, 25ms apart. Call before Serve.
func (s *session) SetRejoin(attempts int, backoff time.Duration) {
	s.rejoinAttempts, s.rejoinBackoff, s.rejoinSet = attempts, backoff, true
}

// SetChaos makes the peer enforce sched's events keyed by its ID: before
// each round's body it looks up ActionFor(id, round) and kills the
// connection (Crash, Partition), fails the round once (Flake), delays its
// reply (Delay) or corrupts its update (Corrupt). Kills come before any
// device solves, so the device RNG streams stay untouched that round, and
// the in-process chaos decorator injects the same faults at the same
// (device, round) points: a chaos run is bit-identical across the
// sequential, parallel and TCP backends. An aggregation-tree node refuses a
// schedule with a Corrupt event on its shard, since a corrupted partial sum
// has no in-process reference. Call before Serve.
func (s *session) SetChaos(sched *chaos.Schedule) error {
	if s.hello.Partial {
		for _, ev := range sched.Events {
			if ev.Kind == chaos.Corrupt && ev.Device == s.id {
				return fmt.Errorf("transport: aggregator shard %d cannot enforce chaos event %q on device %d in round %d: "+
					"a corrupted partial sum has no in-process reference (nodes enforce crash, partition, flake and delay)",
					s.id, ev.Kind, ev.Device, ev.Round)
			}
		}
	}
	s.sched = sched
	s.flaked = make(map[int]bool)
	return nil
}

// SetLease offers (jobID, epoch) in every Hello, for the jobs control
// plane. A coordinator incarnation holding a different lease answers with a
// LeaseReject naming its own; the peer adopts the told values and
// re-Hello's through its rejoin loop, so a peer leased to a dead
// incarnation is fenced out of the next one until it rejoins under the new
// epoch. Call before Serve.
func (s *session) SetLease(jobID string, epoch int64) { s.leaseJob, s.leaseEpoch = jobID, epoch }

// Close ends the peer: Serve returns nil once it sees the connection
// close, and a Serve that has not dialed yet returns without dialing.
func (s *session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.conn == nil {
		return nil
	}
	return s.conn.Close()
}

func (s *session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// errPeerClosed is dial's answer when Close came first.
var errPeerClosed = errors.New("transport: peer closed")

// dial (re)establishes the connection and performs the handshake. The chaos
// wrapper, when present, must be installed before the frame reader and
// writer are built: the wire assumes a single uninterrupted stream, so
// swapping the writer mid-stream would corrupt the protocol.
func (s *session) dial() error {
	if s.isClosed() {
		return errPeerClosed
	}
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return protocolError("dial", err)
	}
	var c net.Conn = conn
	s.cconn = nil
	if s.sched != nil {
		s.cconn = chaos.NewConn(conn)
		c = s.cconn
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errPeerClosed
	}
	s.conn = c
	s.mu.Unlock()
	s.fw = frameWriter{w: s.conn}
	s.fr = frameReader{r: s.conn}
	h := s.hello
	h.JobID, h.Epoch = s.leaseJob, s.leaseEpoch
	s.wbuf = marshalHello(s.wbuf[:0], &h)
	if err := s.fw.writeFrame(s.wbuf); err != nil {
		conn.Close()
		return protocolError("hello", err)
	}
	return nil
}

// errStaleLease is returned by recvRequest when the coordinator answered
// the Hello with a LeaseReject. The peer has already adopted the told
// (job, epoch) by then, so the normal lost() path — re-dial, re-Hello —
// performs the lease renewal with no extra machinery.
var errStaleLease = errors.New("transport: lease is stale")

// recvRequest reads the next round request off the wire into s.req,
// overwriting every field.
func (s *session) recvRequest() error {
	typ, payload, err := s.fr.next()
	if err != nil {
		return err
	}
	switch typ {
	case msgRoundRequest:
		return unmarshalRequest(payload, &s.req)
	case msgLeaseReject:
		lr, err := unmarshalLeaseReject(payload)
		if err != nil {
			return err
		}
		s.leaseJob, s.leaseEpoch = lr.JobID, lr.Epoch
		return errStaleLease
	default:
		return errFrame("expected round request, got frame type %d", typ)
	}
}

// Serve dials the coordinator, says Hello and processes round requests
// until the coordinator sends Done or the peer is closed, and then returns
// nil. A connection lost any other way — the coordinator closed it before
// Done, a reset, a bad frame — is re-dialed under the rejoin policy, and
// is Serve's error once no attempts are left.
func (s *session) Serve() error {
	if !s.rejoinSet && (s.sched != nil || s.leaseJob != "" || s.leaseEpoch != 0) {
		s.rejoinAttempts, s.rejoinBackoff = 40, 25*time.Millisecond
	}
	if err := s.dial(); err != nil {
		if err == errPeerClosed {
			return nil
		}
		return err
	}
	defer func() { s.conn.Close() }()
	for {
		again, err := s.serveConn()
		if !again || err != nil {
			return err
		}
	}
}

// serveConn runs the request loop on the current connection. It returns
// (true, nil) when the peer rejoined on a fresh connection and the loop
// should continue.
func (s *session) serveConn() (rejoin bool, err error) {
	for {
		if err := s.recvRequest(); err != nil {
			return s.lost(err)
		}
		req := &s.req
		if req.Done {
			return false, nil
		}
		s.outageTries = 0

		var ev chaos.Event
		if s.sched != nil {
			ev, _ = s.sched.ActionFor(s.id, req.Round)
		}
		switch ev.Kind {
		case chaos.Crash, chaos.Partition:
			// Kill before solving: the device RNG streams stay untouched this
			// round, matching the in-process decorator, which skips the
			// device (for a node, its whole shard) entirely.
			s.killConn()
			return s.lost(net.ErrClosed)
		case chaos.Flake:
			if !s.flaked[req.Round] {
				s.flaked[req.Round] = true
				s.wbuf = s.role.appendFlake(s.wbuf[:0], req)
				if err := s.fw.writeFrame(s.wbuf); err != nil {
					return s.lost(err)
				}
				continue
			}
		case chaos.Delay:
			s.cconn.ArmWriteDelay(ev.Delay())
		}

		s.wbuf = s.role.appendReply(s.wbuf[:0], req, s.runRound(req, ev))
		if err := s.fw.writeFrame(s.wbuf); err != nil {
			return s.lost(err)
		}
	}
}

// runRound runs the role's round body, turning a panic into the reply's
// error message: one bad round is a fault the coordinator retries or
// drops, not a dead peer.
func (s *session) runRound(req *RoundRequest, ev chaos.Event) (errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			errMsg = toErrString(r)
		}
	}()
	return s.role.solve(req, ev)
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

// startSpan opens the round body's top span, named name, when tracing is on
// and req carries a trace context. Span times are relative to this call
// (the request's receipt); the coordinator re-bases them onto its timeline.
// Wire parent 0 designates the propagated round span.
func (s *session) startSpan(req *RoundRequest, name string) (trace.WSpan, bool) {
	if s.rec == nil || req.TraceID == 0 {
		return trace.WSpan{}, false
	}
	s.rec.Rebase()
	return s.rec.Start(name, 0), true
}

// killConn drops the connection abruptly (RST when possible), simulating
// a process crash or network partition.
func (s *session) killConn() {
	if s.cconn != nil {
		s.cconn.Kill()
		return
	}
	s.conn.Close()
}

// lost handles a connection loss. A peer that was closed ends Serve with
// nil. Otherwise it re-dials, up to the rejoin attempts left in this outage
// (a served request resets the count); once none are left the loss is
// Serve's error.
func (s *session) lost(cause error) (rejoin bool, err error) {
	if s.isClosed() {
		return false, nil
	}
	if s.rejoinAttempts > 0 {
		s.conn.Close()
		for s.outageTries < s.rejoinAttempts {
			s.outageTries++
			time.Sleep(s.rejoinBackoff)
			switch err := s.dial(); err {
			case nil:
				return true, nil
			case errPeerClosed:
				return false, nil
			}
		}
	}
	if errors.Is(cause, io.EOF) || errors.Is(cause, io.ErrUnexpectedEOF) || errors.Is(cause, syscall.ECONNRESET) {
		return false, fmt.Errorf("transport: the coordinator closed the connection before Done: %w", cause)
	}
	return false, protocolError("recv", cause)
}
