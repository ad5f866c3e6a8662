package transport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
)

func TestHelloLeaseExtensionRoundTrip(t *testing.T) {
	// Leased Hello carries the extension.
	h := Hello{ClientID: 3, LoDevice: 3, NumDevices: 1, NumSamples: 40, JobID: "job-a", Epoch: 7}
	b := marshalHello(nil, &h)
	got, err := unmarshalHello(b[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v, want %+v", got, h)
	}
	// Unleased Hello carries no extension.
	legacy := *workerHello(3, 40)
	lb := marshalHello(nil, &legacy)
	if len(lb) >= len(b) {
		t.Fatal("unleased Hello must not carry the lease extension")
	}
	lgot, err := unmarshalHello(lb[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if lgot != legacy {
		t.Fatalf("legacy round trip %+v, want %+v", lgot, legacy)
	}
}

func TestLeaseRejectRoundTrip(t *testing.T) {
	lr := LeaseReject{JobID: "job-b", Epoch: 12}
	b := marshalLeaseReject(nil, &lr)
	got, err := unmarshalLeaseReject(b[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got != lr {
		t.Fatalf("round trip %+v, want %+v", got, lr)
	}
}

// TestLeaseEpochFencesCoordinatorRestart is the worker-rejoin-races-restart
// scenario: a leased cohort trains under epoch 1, the coordinator dies
// abruptly (no Done — a SIGKILL), and a new incarnation binds the same
// address under epoch 2. The workers' rejoin loops re-Hello with the stale
// epoch, get a LeaseReject telling them the current lease, adopt it, and
// re-Hello again — after which the resumed run must be bit-identical to an
// uninterrupted one.
func TestLeaseEpochFencesCoordinatorRestart(t *testing.T) {
	const n, split = 3, 3
	p := testPartition(n, 20, 3, 3, 9)
	m := models.NewSoftmax(3, 3, 0)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 7)
	cfg.Seed = 99

	// Uninterrupted in-process reference.
	r, _, err := engine.NewInProcess(m, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := mathx.Clone(r.Global())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	workers := make([]*Worker, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		w, err := NewLeasedWorker(addr, k, p.Clients[k], m, cfg.Seed, "job-a", 1)
		if err != nil {
			t.Fatal(err)
		}
		workers[k] = w
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := w.Serve(); err != nil {
				t.Errorf("worker %d serve: %v", k, err)
			}
		}(k)
	}
	c1, err := NewLeasedCoordinatorOn(ln, n, 5*time.Second, "job-a", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch-1 incarnation: the first `split` rounds.
	cfg1 := cfg
	cfg1.Rounds = split
	w0 := make([]float64, m.Dim())
	mid, _, err := train(c1, w0, cfg1, m.Clone(), p.Clients)
	if err != nil {
		t.Fatal(err)
	}
	// Abrupt death: connections and listener drop with no Done, exactly a
	// SIGKILL mid-deployment. Every worker enters its rejoin loop.
	c1.Close()

	// New incarnation, same address, bumped lease epoch.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewLeasedCoordinatorOn(ln2, n, 10*time.Second, "job-a", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Resume at the kill boundary: round-keyed reseeding makes the
	// remaining rounds draw exactly what the uninterrupted run drew.
	eng, err := c2.Engine(mid, cfg, m.Clone(), p.Clients)
	if err != nil {
		t.Fatal(err)
	}
	eng.Resume(split, nil)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := mathx.Clone(eng.Global())
	c2.Shutdown()
	wg.Wait()

	for k, w := range workers {
		if w.leaseEpoch != 2 || w.leaseJob != "job-a" {
			t.Errorf("worker %d lease (%q, %d), want (job-a, 2) — LeaseReject never adopted", k, w.leaseJob, w.leaseEpoch)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted run differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestLeaseCycleLeavesNoGoroutines: a leased incarnation dies abruptly, the
// next answers the workers' stale Hellos with a LeaseReject, they adopt the
// new lease and rejoin it, and Shutdown/Close end the fleet — no goroutine
// outlives the cycle, and neither incarnation's Close is left waiting on an
// exchange goroutine nobody stopped.
func TestLeaseCycleLeavesNoGoroutines(t *testing.T) {
	const n = 2
	p := testPartition(n, 10, 3, 2, 6)
	m := models.NewSoftmax(3, 2, 0)
	cfg := engine.FedAvg(5, 1, 2, 2, 2)
	w0 := make([]float64, m.Dim())
	cyclesLeaveNoGoroutines(t, 2, func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		workers := make([]*Worker, n)
		var wg sync.WaitGroup
		for k := range workers {
			w, err := NewLeasedWorker(addr, k, p.Clients[k], m, 1, "job-a", 1)
			if err != nil {
				t.Fatal(err)
			}
			workers[k] = w
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Serve(); err != nil {
					t.Errorf("worker %d serve: %v", k, err)
				}
			}()
		}
		c1, err := NewLeasedCoordinatorOn(ln, n, 5*time.Second, "job-a", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := train(c1, w0, cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
		closeWithin(t, c1) // no Done: the workers enter their rejoin loops

		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := NewLeasedCoordinatorOn(ln2, n, 5*time.Second, "job-a", 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := train(c2, w0, cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
		c2.Shutdown()
		wg.Wait()
		closeWithin(t, c2)
		for k, w := range workers {
			if w.leaseEpoch != 2 {
				t.Fatalf("worker %d still leased to epoch %d: the LeaseReject was never adopted", k, w.leaseEpoch)
			}
		}
	})
}

// closeWithin closes c and fails the test if Close, which waits for every
// connection's exchange goroutine to exit, has not returned in 5s.
func closeWithin(t *testing.T, c *Coordinator) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Coordinator.Close still waits on exchange goroutines after 5s")
	}
}
