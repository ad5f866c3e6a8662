package transport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
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
	m := models.NewSoftmax(3, 3)
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
		w, err := NewWorker(addr, k, p.Clients[k], m, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		w.SetLease("job-a", 1)
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
	m := models.NewSoftmax(3, 2)
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
			w, err := NewWorker(addr, k, p.Clients[k], m, 1)
			if err != nil {
				t.Fatal(err)
			}
			w.SetLease("job-a", 1)
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

// startPeers starts the peers of a fleet against addr — one AggregatorNode
// per contiguous shard of fanout when tree, one Worker per device otherwise
// — each offering lease (job, epoch) when job is non-empty and enforcing
// sched when it is non-nil. It returns the peers' sessions, so a test can
// read the lease each one ended with, and a WaitGroup done when every
// Serve has returned nil.
func startPeers(t *testing.T, addr string, p *data.Partition, m models.Model, seed int64,
	tree bool, fanout int, sched *chaos.Schedule, job string, epoch int64) ([]*session, *sync.WaitGroup) {
	t.Helper()
	var peers []*session
	if tree {
		los, his := treeShards(p, fanout)
		for s := range los {
			n, err := NewAggregatorNode(addr, s, los[s], p.Clients[los[s]:his[s]], m, seed)
			if err != nil {
				t.Fatal(err)
			}
			peers = append(peers, &n.session)
		}
	} else {
		for k := range p.Clients {
			w, _ := NewWorker(addr, k, p.Clients[k], m, seed)
			peers = append(peers, &w.session)
		}
	}
	var wg sync.WaitGroup
	for i, s := range peers {
		if job != "" {
			s.SetLease(job, epoch)
		}
		if sched != nil {
			if err := s.SetChaos(sched); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Serve(); err != nil {
				t.Errorf("peer %d serve: %v", i, err)
			}
		}()
	}
	return peers, &wg
}

// TestLeasedTreeFencedAcrossCoordinatorRestart is the restart scenario of
// TestLeaseEpochFencesCoordinatorRestart on an aggregation tree: leased
// shard nodes train under epoch 1, the coordinator dies without Done, and
// a new incarnation on the same address holds epoch 2. The nodes are
// fenced, adopt epoch 2 and rejoin, and the resumed run must be
// bit-identical to the flat ShardedMean reference over the same shard map.
func TestLeasedTreeFencedAcrossCoordinatorRestart(t *testing.T) {
	const fanout, split = 3, 3
	p := testPartition(12, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 6)
	cfg.Seed = 42
	w0 := testVec(33, m.Dim())

	ref := flatShardedEngine(t, p, m, cfg, fanout, w0, nil)
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := mathx.Clone(ref.Global())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	nodes, wg := startPeers(t, addr, p, m, cfg.Seed, true, fanout, nil, "job-a", 1)
	c1, err := NewLeasedCoordinatorOn(ln, fanout, 5*time.Second, "job-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := cfg
	cfg1.Rounds = split
	mid, _, err := train(c1, w0, cfg1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close() // no Done: every node enters its rejoin loop

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewLeasedCoordinatorOn(ln2, fanout, 10*time.Second, "job-a", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Tree() {
		t.Fatal("the restarted coordinator's peers did not rejoin as tree nodes")
	}
	eng, err := c2.Engine(mid, cfg, nil, nil)
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

	for s, n := range nodes {
		if n.leaseJob != "job-a" || n.leaseEpoch != 2 {
			t.Errorf("node %d lease (%q, %d), want (job-a, 2) — LeaseReject never adopted", s, n.leaseJob, n.leaseEpoch)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted tree differs from the flat sharded reference at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestLeasedChaosMatchesUnleased: a lease and a fault schedule compose on
// one peer, in both fleet shapes. A crashed peer rejoins under its lease
// and a flaked round is retried, and the model is bit-identical to the
// same schedule run by unleased peers.
func TestLeasedChaosMatchesUnleased(t *testing.T) {
	const (
		peers      = 3
		crashPeer  = 1
		crashRound = 3
		flakePeer  = 2
		flakeRound = 2
	)
	p := testPartition(peers*2, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 5)
	cfg.Seed = 42
	w0 := testVec(33, m.Dim())
	sched := &chaos.Schedule{Events: []chaos.Event{
		{Device: crashPeer, Round: crashRound, Kind: chaos.Crash},
		{Device: flakePeer, Round: flakeRound, Kind: chaos.Flake},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func(tree bool, job string, epoch int64) ([]float64, []obs.RoundStats) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := len(p.Clients)
		if tree {
			n = peers
		}
		_, wg := startPeers(t, ln.Addr().String(), p, m, cfg.Seed, tree, peers, sched, job, epoch)
		c, err := NewLeasedCoordinatorOn(ln, n, 5*time.Second, job, epoch)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetFaultPolicy(FaultPolicy{MaxRetries: 1, RetryBackoff: 10 * time.Millisecond,
			MinParticipants: 1, MaxFailedRounds: 3})
		eng, err := c.Engine(w0, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink := &memSink{}
		eng.SetStats(obs.NewCollector(sink))
		eng.OnRound(func(info engine.RoundInfo) error {
			if info.Round == crashRound {
				// Adopt the crashed peer at the next round, in both runs.
				return c.AwaitRejoin(crashPeer, 10*time.Second)
			}
			return nil
		})
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := mathx.Clone(eng.Global())
		c.Shutdown()
		wg.Wait()
		return got, sink.rounds
	}

	for _, tc := range []struct {
		name string
		tree bool
	}{{"flat", false}, {"tree", true}} {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := run(tc.tree, "", 0)
			got, rounds := run(tc.tree, "job-a", 1)
			for _, rs := range rounds {
				switch {
				case rs.Round == flakeRound && rs.Retries == 0:
					t.Fatal("flake round recorded no retry — the flake was never injected")
				case rs.Round == crashRound+1 && rs.Rejoins == 0:
					t.Fatal("no rejoin recorded after the crash round")
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("leased chaos run differs from the unleased one at %d: %v vs %v", i, got[i], want[i])
				}
			}
		})
	}
}
