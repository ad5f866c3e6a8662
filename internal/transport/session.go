package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
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
// both peers. Its read and write buffers are reused round over round, so the
// steady-state loop does not allocate for the wire.
type session struct {
	role peerRole
	// id is the ID the peer says hello with — a client ID or a shard ID —
	// and the one its fault schedule is keyed by. hello is the peer's
	// identity (ID, device range, sample count, role), sent with the
	// current lease on every dial.
	id    int
	hello Hello
	addr  string
	conn  net.Conn

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

	// Rejoin policy: after an unclean connection loss the peer re-dials the
	// coordinator up to rejoinAttempts times, spaced by rejoinBackoff, and is
	// adopted back at the next round boundary. Zero attempts, the default
	// for a plain peer, ends Serve on the first loss.
	rejoinAttempts int
	rejoinBackoff  time.Duration
	outageTries    int

	// rec, when non-nil, records the round body's spans relative to each
	// request's receipt and ships them back in the reply — but only for
	// requests that carry a TraceID, so a tracing peer against a
	// non-tracing coordinator sends nothing extra.
	rec *trace.Recorder
}

// connect installs role and dials. A fault schedule or a lease turns on the
// persistent rejoin policy (40 attempts, 25ms apart): both peers expect to
// lose the connection and come back.
func (s *session) connect(role peerRole) error {
	s.role = role
	if s.sched != nil {
		s.flaked = make(map[int]bool)
	}
	if s.sched != nil || s.leaseJob != "" || s.leaseEpoch != 0 {
		s.rejoinAttempts = 40
		s.rejoinBackoff = 25 * time.Millisecond
	}
	return s.dial()
}

// EnableTrace makes the peer record its round body's trace spans and return
// them in its replies whenever the coordinator propagates a trace context
// (RoundRequest.TraceID != 0). Call before Serve.
func (s *session) EnableTrace() { s.rec = trace.NewRecorder() }

// SetRejoin configures how persistently the peer re-dials the coordinator
// after losing its connection. attempts == 0 disables rejoining (the
// default for plain peers).
func (s *session) SetRejoin(attempts int, backoff time.Duration) {
	s.rejoinAttempts = attempts
	s.rejoinBackoff = backoff
}

// dial (re)establishes the connection and performs the handshake. The chaos
// wrapper, when present, must be installed before the frame reader and
// writer are built: the wire assumes a single uninterrupted stream, so
// swapping the writer mid-stream would corrupt the protocol.
func (s *session) dial() error {
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return protocolError("dial", err)
	}
	s.conn = conn
	s.cconn = nil
	if s.sched != nil {
		s.cconn = chaos.NewConn(conn)
		s.conn = s.cconn
	}
	s.fw = frameWriter{w: s.conn}
	s.fr = frameReader{r: bufio.NewReader(s.conn)}
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

// Serve processes round requests until the coordinator sends Done or the
// connection closes. A clean shutdown (Done or EOF) returns nil. With a
// rejoin policy, connection losses trigger re-dials before giving up.
func (s *session) Serve() error {
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

// lost handles a connection loss: clean closes (Done/EOF/ErrClosed) with
// no rejoin policy end Serve with nil, other errors propagate. With a
// rejoin policy the peer first re-dials, up to the attempts left in this
// outage (a served request resets the count).
func (s *session) lost(cause error) (rejoin bool, err error) {
	clean := errors.Is(cause, io.EOF) || errors.Is(cause, net.ErrClosed)
	if s.rejoinAttempts <= 0 {
		if clean {
			return false, nil
		}
		return false, protocolError("recv", cause)
	}
	s.conn.Close()
	for s.outageTries < s.rejoinAttempts {
		s.outageTries++
		time.Sleep(s.rejoinBackoff)
		if err := s.dial(); err == nil {
			return true, nil
		}
	}
	if clean {
		return false, nil
	}
	return false, protocolError("recv", cause)
}
