package chaos

import (
	"net"
	"sync"
	"time"
)

// Conn is the wire-level enforcement point: a net.Conn wrapper the TCP
// worker threads its connection through so schedule events can be acted
// out on the socket itself — an abrupt kill for crash/partition rounds
// and a one-shot write stall for delay rounds. The wrapper is inert until
// armed, so a chaos-enabled worker with an empty schedule behaves exactly
// like a plain one.
type Conn struct {
	net.Conn

	mu    sync.Mutex
	delay time.Duration // applied to the next Write, then cleared
}

// NewConn wraps conn. Wrap before any traffic flows (the frame writer
// must be built over the wrapper for delays to apply).
func NewConn(conn net.Conn) *Conn { return &Conn{Conn: conn} }

// ArmWriteDelay stalls the next Write by d — one reply arrives late, the
// following ones are on time. Safe to call from the serving goroutine
// between rounds.
func (c *Conn) ArmWriteDelay(d time.Duration) {
	c.mu.Lock()
	c.delay = d
	c.mu.Unlock()
}

// Write implements net.Conn, honoring a pending armed delay.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	d := c.delay
	c.delay = 0
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}

// Kill drops the connection abruptly — SO_LINGER 0 so the close emits an
// RST instead of a graceful FIN, the closest portable stand-in for a
// crashed process. The coordinator sees a network-level error and tears
// the worker down; the worker rejoins with a fresh dial.
func (c *Conn) Kill() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
}
