// Aggregation-tree tests: the node's Hello and the PartialSum frame round-trips,
// the bit-identity of a tree run against the flat ShardedMean reference,
// chaos against an interior node degrading exactly like a scripted dropout
// of its shard, and the O(model + shards) root-memory guarantee.
package transport

import (
	"context"
	"net"
	"strings"
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
	"fedproxvr/internal/testx"
	"fedproxvr/internal/trace"
)

// partialSumWireSize returns the exact framed size in bytes (header
// included) of a successful, span-free PartialSum carrying a
// dim-dimensional partial sum. The tree streams partials as raw float64
// only, so there is no codec parameter. (Error frames and shipped spans
// use uvarints, so their sizes are content-dependent; span excess is
// measured on receipt as PartialSum.SpanBytes.)
func partialSumWireSize(dim int) int {
	// shardID+round+flags + devices + gradEvals+solveSeconds+weight +
	// spanCount(0) + dim prefix + body.
	return frameHeaderSize + 4 + 4 + 1 + 4 + 8 + 8 + 8 + 1 + 4 + 8*dim
}

// TestAggHelloRoundTrip: the Hello an aggregation-tree node says — its
// shard range with the node role — round-trips exactly at HelloWireSize,
// carries role byte 1 on the wire, and every truncation is rejected.
func TestAggHelloRoundTrip(t *testing.T) {
	h := Hello{ClientID: 3, LoDevice: 4000, NumDevices: 1000, NumSamples: 123456789, Partial: true}
	frame := marshalHello(nil, &h)
	if len(frame) != HelloWireSize {
		t.Fatalf("node hello frame is %d bytes, HelloWireSize says %d", len(frame), HelloWireSize)
	}
	if role := frame[frameHeaderSize+1]; role != 1 {
		t.Fatalf("node hello role byte %d, want 1", role)
	}
	got, err := unmarshalHello(frame[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	for n := 0; n < len(frame)-frameHeaderSize; n++ {
		if _, err := unmarshalHello(frame[frameHeaderSize : frameHeaderSize+n]); err == nil {
			t.Fatalf("node hello truncated to %d bytes accepted", n)
		}
	}
}

func TestPartialSumRoundTrip(t *testing.T) {
	const dim = 16
	ps := PartialSum{
		ShardID: 1, Round: 7, Devices: 3,
		GradEvals: 9001, SolveSeconds: 0.25, Weight: 60,
		Sum: testVec(7, dim),
	}
	frame := marshalPartialSum(nil, &ps)
	if len(frame) != partialSumWireSize(dim) {
		t.Fatalf("PartialSum frame is %d bytes, partialSumWireSize(%d) says %d",
			len(frame), dim, partialSumWireSize(dim))
	}
	// Version 3 framed this sum in 184 bytes; version 4 dropped its failed
	// and straggler counts (two u32s no node set).
	if len(frame) != 184-8 {
		t.Fatalf("PartialSum frame is %d bytes at dim %d, want version 3's 184 less 8", len(frame), dim)
	}
	var got PartialSum
	if err := unmarshalPartialSum(frame[frameHeaderSize:], &got); err != nil {
		t.Fatal(err)
	}
	if got.ShardID != 1 || got.Round != 7 || got.Devices != 3 ||
		got.GradEvals != 9001 || got.SolveSeconds != 0.25 ||
		got.Weight != 60 || got.Err != "" {
		t.Fatalf("decoded %+v", got)
	}
	for i := range ps.Sum {
		if got.Sum[i] != ps.Sum[i] {
			t.Fatalf("sum differs at %d: %v vs %v (partial sums must be exact)", i, got.Sum[i], ps.Sum[i])
		}
	}
	for n := 0; n < len(frame)-frameHeaderSize; n++ {
		var r PartialSum
		if err := unmarshalPartialSum(frame[frameHeaderSize:frameHeaderSize+n], &r); err == nil {
			t.Fatalf("partial sum truncated to %d bytes accepted", n)
		}
	}
	var r PartialSum
	if err := unmarshalPartialSum(append(append([]byte(nil), frame[frameHeaderSize:]...), 0xAA), &r); err == nil {
		t.Fatal("trailing garbage accepted")
	}

	// Error path: decoding into the same struct must clear every stale field.
	errPS := PartialSum{ShardID: 2, Round: 8, Err: "chaos: injected flake"}
	frame = marshalPartialSum(frame[:0], &errPS)
	if err := unmarshalPartialSum(frame[frameHeaderSize:], &got); err != nil {
		t.Fatal(err)
	}
	if got.Err != "chaos: injected flake" || got.ShardID != 2 || got.Round != 8 {
		t.Fatalf("error partial %+v", got)
	}
	if len(got.Sum) != 0 || got.Devices != 0 || got.Weight != 0 || got.GradEvals != 0 {
		t.Fatalf("error partial kept stale payload fields: %+v", got)
	}

	// Span-bearing path: the decoder measures the span excess so the
	// accounting identity frameLen == partialSumWireSize(dim) + SpanBytes
	// holds exactly.
	spanPS := ps
	spanPS.Spans = []trace.WireSpan{
		{ID: 1, Parent: 0, Name: "shard-solve", Start: 0.001, End: 0.2},
		{ID: 2, Parent: 1, Name: "device-7", Start: 0.002, End: 0.05},
	}
	frame = marshalPartialSum(frame[:0], &spanPS)
	if err := unmarshalPartialSum(frame[frameHeaderSize:], &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || got.Spans[0] != spanPS.Spans[0] || got.Spans[1] != spanPS.Spans[1] {
		t.Fatalf("spans %+v, want %+v", got.Spans, spanPS.Spans)
	}
	if got.SpanBytes <= 0 {
		t.Fatal("span-bearing partial measured no span bytes")
	}
	if want := partialSumWireSize(dim) + int(got.SpanBytes); len(frame) != want {
		t.Fatalf("span frame is %d bytes, partialSumWireSize + SpanBytes says %d", len(frame), want)
	}
}

// treeShards splits p.Clients into fanout contiguous shards using the same
// arithmetic as cmd/fedclient: shard s owns [s·n/fanout, (s+1)·n/fanout).
func treeShards(p *data.Partition, fanout int) (los, his []int) {
	n := len(p.Clients)
	for s := 0; s < fanout; s++ {
		los = append(los, s*n/fanout)
		his = append(his, (s+1)*n/fanout)
	}
	return los, his
}

// launchTree starts one AggregatorNode per shard (enforcing sched when it is
// non-nil, recording trace spans when traced) and returns the coordinator
// they connected to, a tree because the nodes say so in their Hellos.
func launchTree(t *testing.T, p *data.Partition, m models.Model, seed int64,
	fanout int, sched *chaos.Schedule, traced bool) (*Coordinator, *sync.WaitGroup) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	los, his := treeShards(p, fanout)
	var wg sync.WaitGroup
	for s := 0; s < fanout; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			n, err := NewAggregatorNode(addr, s, los[s], p.Clients[los[s]:his[s]], m, seed)
			if err == nil && sched != nil {
				err = n.SetChaos(sched)
			}
			if err != nil {
				t.Errorf("aggregator node %d: %v", s, err)
				return
			}
			if traced {
				n.EnableTrace()
			}
			if err := n.Serve(); err != nil {
				t.Errorf("aggregator node %d serve: %v", s, err)
			}
		}(s)
	}
	c, err := NewCoordinatorOn(ln, fanout, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, &wg
}

// flatShardedEngine builds the flat reference for a tree run: a Sequential
// executor over the same global device IDs with a ShardedMean aggregator
// over the tree's shard boundaries.
func flatShardedEngine(t *testing.T, p *data.Partition, m models.Model, cfg engine.Config,
	fanout int, w0 []float64, exec func(*engine.Sequential) engine.Executor) *engine.Engine {
	t.Helper()
	devices := make([]*engine.Device, len(p.Clients))
	counts := make([]float64, len(p.Clients))
	for i, shard := range p.Clients {
		devices[i] = engine.NewDevice(i, shard, m, cfg.Seed)
		counts[i] = float64(shard.N())
	}
	_, ends := treeShards(p, fanout)
	seq := engine.NewSequential(devices, cfg.Local)
	var x engine.Executor = seq
	if exec != nil {
		x = exec(seq)
	}
	eng, err := engine.New(cfg, m.Dim(), p.Weights(), x)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetAggregator(engine.NewShardedMean(counts, ends, m.Dim()))
	eng.SetGlobal(w0)
	return eng
}

// memSink retains per-round stats in memory (Clients excluded — the slice
// is only valid during the call).
type memSink struct {
	mu     sync.Mutex
	rounds []obs.RoundStats
}

func (s *memSink) RecordRound(rs *obs.RoundStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *rs
	cp.Clients = nil
	s.rounds = append(s.rounds, cp)
}

func (s *memSink) Close() error { return nil }

// TestTreeMatchesFlatBitIdentical: a tree run over AggregatorNode shards
// must produce the bit-identical model sequence of a flat Sequential run
// folded with ShardedMean over the same shard map — with full
// participation and under probabilistic activation, where each node
// recomputes its slice of the (seed, round, id)-hashed cohort on its own.
func TestTreeMatchesFlatBitIdentical(t *testing.T) {
	const fanout = 3
	p := testPartition(12, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)

	for _, tc := range []struct {
		name string
		prob float64
	}{
		{"full", 0},
		{"activate", 0.6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 6)
			cfg.Seed = 42
			cfg.ActivateProb = tc.prob
			w0 := testVec(33, m.Dim())

			ref := flatShardedEngine(t, p, m, cfg, fanout, w0, nil)
			refSeries, err := ref.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := mathx.Clone(ref.Global())

			c, wg := launchTree(t, p, m, cfg.Seed, fanout, nil, false)
			defer c.Close()
			if got := c.VirtualDevices(); got != len(p.Clients) {
				t.Fatalf("tree coordinator sees %d virtual devices, want %d", got, len(p.Clients))
			}
			eng, err := c.Engine(w0, cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sink := &memSink{}
			eng.SetStats(obs.NewCollector(sink))
			series, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			c.Shutdown()
			wg.Wait()

			got := eng.Global()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tree model differs from flat sharded reference at %d: %v vs %v", i, got[i], want[i])
				}
			}
			refLast, _ := refSeries.Last()
			last, _ := series.Last()
			if last.GradEvals != refLast.GradEvals {
				t.Fatalf("tree ran %d gradient evals, flat reference %d", last.GradEvals, refLast.GradEvals)
			}

			// The rollup must report device-level totals from the PartialSum
			// frames, not shard connections.
			thinned := false
			for _, rs := range sink.rounds {
				if rs.Shards != fanout {
					t.Fatalf("round %d: %d shards reported, want %d", rs.Round, rs.Shards, fanout)
				}
				if tc.prob == 0 && rs.Participants != len(p.Clients) {
					t.Fatalf("round %d: %d participants, want all %d devices", rs.Round, rs.Participants, len(p.Clients))
				}
				if rs.Participants < len(p.Clients) {
					thinned = true
				}
			}
			if tc.prob > 0 && !thinned {
				t.Fatal("activation never thinned the cohort — the test is vacuous")
			}
		})
	}
}

// dropShardExec is the flat-engine equivalent of crashing one aggregator
// node for one round: at round `at` the devices in [lo, hi) are removed
// from the fan-out BEFORE running (their RNG streams stay untouched) and
// their slots come back nil, exactly what the tree coordinator sees when
// the shard's connection dies.
type dropShardExec struct {
	inner  *engine.Sequential
	at     int
	lo, hi int
	sub    []int
	subRes engine.RoundResult
}

func (d *dropShardExec) RunRound(ctx context.Context, spec engine.RoundSpec, res *engine.RoundResult) error {
	if spec.Round != d.at {
		return d.inner.RunRound(ctx, spec, res)
	}
	selected := spec.Selected
	d.sub = d.sub[:0]
	for _, id := range selected {
		if id < d.lo || id >= d.hi {
			d.sub = append(d.sub, id)
		}
	}
	spec.Selected = d.sub
	if err := d.inner.RunRound(ctx, spec, &d.subRes); err != nil {
		return err
	}
	out := res.Reset(len(selected))
	res.GradEvals = d.subRes.GradEvals
	j := 0
	for i, id := range selected {
		if id < d.lo || id >= d.hi {
			out[i] = d.subRes.Locals[j]
			j++
		}
	}
	return nil
}

// TestTreeChaosMatchesScriptedShardDropout: killing an interior aggregator
// node mid-run must degrade EXACTLY like a scripted dropout of its whole
// shard for that round — bit-identical to the flat reference with the
// shard's devices excised from that round's fan-out — and a flaked
// PartialSum must be absorbed by a retry with no trace in the model.
func TestTreeChaosMatchesScriptedShardDropout(t *testing.T) {
	const (
		fanout     = 3
		crashShard = 1
		crashRound = 3
		flakeShard = 2
		flakeRound = 2
	)
	p := testPartition(12, 20, 3, 3, 1)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 6)
	cfg.Seed = 42
	w0 := testVec(33, m.Dim())

	los, his := treeShards(p, fanout)
	ref := flatShardedEngine(t, p, m, cfg, fanout, w0, func(seq *engine.Sequential) engine.Executor {
		return &dropShardExec{inner: seq, at: crashRound, lo: los[crashShard], hi: his[crashShard]}
	})
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := mathx.Clone(ref.Global())

	sched := &chaos.Schedule{Events: []chaos.Event{
		{Device: crashShard, Round: crashRound, Kind: chaos.Crash},
		{Device: flakeShard, Round: flakeRound, Kind: chaos.Flake},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	c, wg := launchTree(t, p, m, cfg.Seed, fanout, sched, false)
	defer c.Close()
	// One retry absorbs the flake; quorum 1 lets the crash round degrade.
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
			// Block until the crashed node's rejoin is pending so the next
			// round adopts it deterministically.
			return c.AwaitRejoin(crashShard, 10*time.Second)
		}
		return nil
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatalf("run with a crashed aggregator node should complete: %v", err)
	}
	c.Shutdown()
	wg.Wait()

	got := eng.Global()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chaos tree model differs from scripted-dropout reference at %d: %v vs %v",
				i, got[i], want[i])
		}
	}

	shardSize := his[crashShard] - los[crashShard]
	for _, rs := range sink.rounds {
		switch rs.Round {
		case crashRound:
			if rs.Shards != fanout-1 {
				t.Fatalf("crash round: %d shards reported, want %d", rs.Shards, fanout-1)
			}
			if rs.Participants != len(p.Clients)-shardSize {
				t.Fatalf("crash round: %d participants, want %d (crashed shard's devices unknown to the root)",
					rs.Participants, len(p.Clients)-shardSize)
			}
		case flakeRound:
			if rs.Retries == 0 {
				t.Fatal("flake round recorded no retry — the flake was never injected")
			}
			if rs.Shards != fanout || rs.Participants != len(p.Clients) {
				t.Fatalf("flake round: %d shards, %d participants — the retry should make it whole",
					rs.Shards, rs.Participants)
			}
		case crashRound + 1:
			if rs.Rejoins == 0 {
				t.Fatal("no rejoin recorded after the crash round")
			}
			if rs.Shards != fanout {
				t.Fatalf("round after crash: %d shards reported, want all %d back", rs.Shards, fanout)
			}
		}
	}
}

// TestChaosAggregatorNodeRefusesCorrupt: a corrupted partial sum has no
// in-process reference to match, so a node refuses a schedule that aims a
// Corrupt event at its shard — naming the event — instead of running the
// round clean. A Corrupt event aimed at another shard does not concern it.
func TestChaosAggregatorNodeRefusesCorrupt(t *testing.T) {
	p := testPartition(4, 10, 3, 3, 2)
	m := models.NewSoftmax(3, 3)
	sched := &chaos.Schedule{Events: []chaos.Event{{Device: 1, Round: 3, Kind: chaos.Corrupt}}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := NewAggregatorNode("127.0.0.1:0", 1, 2, p.Clients[2:], m, 7)
	if err != nil {
		t.Fatal(err)
	}
	err = n.SetChaos(sched)
	if err == nil {
		t.Fatal("a node accepted a Corrupt event on its own shard it cannot enforce")
	}
	if msg := err.Error(); !strings.Contains(msg, `"corrupt"`) || !strings.Contains(msg, "round 3") {
		t.Fatalf("refusal %q does not name the corrupt event of round 3", msg)
	}
	other, err := NewAggregatorNode("127.0.0.1:0", 0, 0, p.Clients[:2], m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SetChaos(sched); err != nil {
		t.Fatalf("shard 0 refused a schedule whose Corrupt event targets shard 1: %v", err)
	}
}

// stubShardPeer handshakes as an aggregator node claiming ndev virtual
// devices but holds no per-device state at all: it answers every round with
// a fixed partial sum. It exists to isolate the ROOT's memory footprint
// from device count.
func stubShardPeer(t *testing.T, addr string, shardID, lo, ndev, dim int, done *sync.WaitGroup) {
	defer done.Done()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("stub shard %d: %v", shardID, err)
		return
	}
	defer conn.Close()
	fw := frameWriter{w: conn}
	fr := frameReader{r: conn}
	buf := marshalHello(nil, &Hello{ClientID: shardID, LoDevice: lo, NumDevices: ndev, NumSamples: int64(ndev) * 10, Partial: true})
	if err := fw.writeFrame(buf); err != nil {
		t.Errorf("stub shard %d hello: %v", shardID, err)
		return
	}
	sum := make([]float64, dim)
	var req RoundRequest
	for {
		typ, payload, err := fr.next()
		if err != nil {
			return
		}
		if typ != msgRoundRequest {
			t.Errorf("stub shard %d: frame type %d", shardID, typ)
			return
		}
		if err := unmarshalRequest(payload, &req); err != nil {
			t.Errorf("stub shard %d: %v", shardID, err)
			return
		}
		if req.Done {
			return
		}
		ps := PartialSum{ShardID: shardID, Round: req.Round, Devices: ndev,
			Weight: float64(ndev) * 10, Sum: sum}
		buf = marshalPartialSum(buf[:0], &ps)
		if err := fw.writeFrame(buf); err != nil {
			t.Errorf("stub shard %d reply: %v", shardID, err)
			return
		}
	}
}

// TestTreeRootMemoryIsDeviceCountInvariant: the root's live heap must not
// grow with the virtual-device count — only with model dim and shard count.
// Scaling the cohort 10× (10k → 100k devices) behind the same 4 shards must
// leave the root's live allocation flat to within noise; any per-device
// state at the root (even 8 bytes/device ≈ 800KB at 100k) trips the bound.
func TestTreeRootMemoryIsDeviceCountInvariant(t *testing.T) {
	const (
		fanout = 4
		dim    = 2048
		rounds = 3
	)
	measure := func(virtDev int) int64 {
		before := testx.LiveHeap()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		var wg sync.WaitGroup
		for s := 0; s < fanout; s++ {
			lo, hi := s*virtDev/fanout, (s+1)*virtDev/fanout
			wg.Add(1)
			go stubShardPeer(t, addr, s, lo, hi-lo, dim, &wg)
		}
		c, err := NewCoordinatorOn(ln, fanout, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.VirtualDevices(); got != virtDev {
			t.Fatalf("coordinator sees %d virtual devices, want %d", got, virtDev)
		}
		cfg := engine.FedAvg(5, 1, 2, 2, rounds)
		w0 := make([]float64, dim)
		for r := 1; r <= rounds; r++ {
			if _, err := c.Round(r, w0, cfg); err != nil {
				t.Fatal(err)
			}
		}

		// Live heap while the coordinator (and its per-connection buffers)
		// are still fully reachable.
		delta := testx.LiveHeap() - before

		c.Shutdown()
		c.Close()
		wg.Wait()
		return delta
	}

	small := measure(10_000)
	big := measure(100_000)
	t.Logf("root live heap: %d bytes at 10k virtual devices, %d at 100k (growth %d)", small, big, big-small)
	const slack = 512 * 1024
	if growth := big - small; growth > slack {
		t.Fatalf("root live heap grew %d bytes when virtual devices scaled 10x (10k: %d, 100k: %d) — "+
			"the root must hold O(model + shards) state, not O(devices)", growth, small, big)
	}
}

// TestAggregatorNodeHeapIsDeviceCountInvariant is the shard-side twin of the
// root test above: a node solves its devices one at a time in one scratch
// and folds each report into the partial sum before the next solve, so what
// it holds per virtual device is the device record alone. Putting 10× the
// devices (100 → 1 000, dim 7850) behind one node must move its live heap
// after a round by less than ONE device used to cost — eleven dim-length
// vectors, 0.69 MB — where the per-device layout added 900 of them.
func TestAggregatorNodeHeapIsDeviceCountInvariant(t *testing.T) {
	m := models.NewSoftmax(784, 10)
	shard := testPartition(1, 4, 784, 10, 9).Clients[0] // shared: data must not scale either
	cfg := engine.FedProxVR(optim.SARAH, 5, 1, 0.1, 1, 2, 1)
	w0 := make([]float64, m.Dim())

	measure := func(virtDev int) int64 {
		shards := make([]*data.Dataset, virtDev)
		for i := range shards {
			shards[i] = shard
		}
		before := testx.LiveHeap()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() {
			n, err := NewAggregatorNode(ln.Addr().String(), 0, 0, shards, m, 7)
			if err == nil {
				err = n.Serve()
			}
			served <- err
		}()
		// The per-message timeout is no part of what this test checks: one
		// serial 1 000-device round under -race on a loaded host can take
		// longer than seconds, so it is set where no round reaches it.
		c, err := NewCoordinatorOn(ln, 1, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Round(1, w0, cfg); err != nil {
			t.Fatal(err)
		}
		// The node is parked in Serve waiting for round 2: everything it
		// holds is still reachable.
		grew := testx.LiveHeap() - before

		c.Shutdown()
		c.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		return grew
	}

	measure(10) // absorb one-time allocations (listener, runtime pools)
	small := measure(100)
	big := measure(1000)
	t.Logf("node live heap after a round: %d bytes at 100 virtual devices, %d at 1000 (%d per added device)",
		small, big, (big-small)/900)
	if growth, perDeviceBefore := big-small, int64(11*8*m.Dim()); growth >= perDeviceBefore {
		t.Fatalf("node live heap grew %d bytes for 900 more virtual devices (100: %d, 1000: %d) — "+
			"a shard node must hold O(model) scratch, not O(devices × model)", growth, small, big)
	}
}

// TestTreeEngineRejectsPerDeviceFeatures: on a tree coordinator, Engine
// rejects up front everything that needs per-device selection or
// per-device data at the root, and a lossy codec.
func TestTreeEngineRejectsPerDeviceFeatures(t *testing.T) {
	const fanout = 2
	p := testPartition(4, 10, 3, 3, 2)
	m := models.NewSoftmax(3, 3)
	c, wg := launchTree(t, p, m, 7, fanout, nil, false)
	defer c.Close()
	w0 := make([]float64, m.Dim())
	base := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 2)
	base.Seed = 7

	reject := func(name string, mut func(*engine.Config)) {
		cfg := base
		mut(&cfg)
		if _, err := c.Engine(w0, cfg, nil, nil); err == nil {
			t.Errorf("%s: a tree Engine accepted a per-device feature the root cannot honor", name)
		}
	}
	reject("dropout", func(cfg *engine.Config) { cfg.DropoutProb = 0.5 })
	reject("fraction", func(cfg *engine.Config) { cfg.ClientFraction = 0.5 })
	if _, err := c.Engine(w0, base, m.Clone(), p.Clients); err == nil {
		t.Error("a tree Engine accepted training shards the root never holds")
	}

	c.SetCodec(CodecInt8)
	if _, err := c.Engine(w0, base, nil, nil); err == nil {
		t.Error("a tree Engine accepted a lossy codec — partial sums must stay exact")
	}
	c.SetCodec(CodecFloat64)

	// The happy path still builds and runs after the rejections.
	eng, err := c.Engine(w0, base, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()
}
