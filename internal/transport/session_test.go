package transport

import (
	"net"
	"strings"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/models"
)

// TestServeFailsWhenCoordinatorClosesBeforeDone: a coordinator that dies
// without sending Done must not look like a clean end to its peers. Plain
// workers, with no rejoin policy, return an error from Serve that says the
// coordinator closed before Done.
func TestServeFailsWhenCoordinatorClosesBeforeDone(t *testing.T) {
	const n = 2
	p := testPartition(n, 10, 3, 2, 5)
	m := models.NewSoftmax(3, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, n)
	for k := 0; k < n; k++ {
		w, _ := NewWorker(ln.Addr().String(), k, p.Clients[k], m, 1)
		go func() { served <- w.Serve() }()
	}
	c, err := NewCoordinatorOn(ln, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // no Shutdown: the server died
	for k := 0; k < n; k++ {
		select {
		case err := <-served:
			if err == nil || !strings.Contains(err.Error(), "closed the connection before Done") {
				t.Fatalf("Serve after the coordinator closed without Done returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve still running 5s after the coordinator closed")
		}
	}
}

// TestCloseBeforeOrDuringFirstDial: Close before Serve makes Serve return
// nil without dialing, and Close racing Serve's first dial ends Serve with
// nil either way (run it under -race).
func TestCloseBeforeOrDuringFirstDial(t *testing.T) {
	p := testPartition(1, 5, 2, 2, 3)
	m := models.NewSoftmax(2, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	w, _ := NewWorker(addr, 0, p.Clients[0], m, 1)
	w.Close()
	if err := w.Serve(); err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("Serve dialed after Close")
	}

	for i := 0; i < 20; i++ {
		w, _ := NewWorker(addr, 0, p.Clients[0], m, 1)
		served := make(chan error, 1)
		go func() { served <- w.Serve() }()
		w.Close()
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("Serve closed during its first dial: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve still running 5s after Close")
		}
	}
}

// TestRejoinDefaultFollowsChaosAndLease: a fault schedule or a lease turns
// on the persistent rejoin default when Serve starts, and an explicit
// SetRejoin wins whichever order the setters ran in.
func TestRejoinDefaultFollowsChaosAndLease(t *testing.T) {
	p := testPartition(1, 5, 2, 2, 3)
	m := models.NewSoftmax(2, 2)
	sched := &chaos.Schedule{Events: []chaos.Event{{Device: 0, Round: 1, Kind: chaos.Flake}}}
	for _, tc := range []struct {
		name  string
		setup func(w *Worker)
		want  int
	}{
		{"plain", func(w *Worker) {}, 0},
		{"lease", func(w *Worker) { w.SetLease("job-a", 1) }, 40},
		{"chaos", func(w *Worker) { w.SetChaos(sched) }, 40},
		{"rejoin then lease", func(w *Worker) { w.SetRejoin(0, 0); w.SetLease("job-a", 1) }, 0},
		{"chaos then rejoin", func(w *Worker) { w.SetChaos(sched); w.SetRejoin(3, time.Millisecond) }, 3},
	} {
		w, _ := NewWorker("127.0.0.1:1", 0, p.Clients[0], m, 1)
		tc.setup(w)
		w.Close() // Serve settles the policy, then returns without dialing
		if err := w.Serve(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if w.rejoinAttempts != tc.want {
			t.Errorf("%s: %d rejoin attempts, want %d", tc.name, w.rejoinAttempts, tc.want)
		}
	}
}
