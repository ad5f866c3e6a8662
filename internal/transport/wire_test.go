package transport

import (
	"context"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

// TestCompressedCodecsCutWireBytes is the compression acceptance gate, on
// the 1010-parameter softmax task where payloads dominate: relative to the
// exact float64 mode (countingConn-measured over whole rounds), int8 must
// cut per-round bytes ≥ 7× and topk-delta ≥ 11×, and the measured ratio
// must be the closed-form CompressionRatio.
func TestCompressedCodecsCutWireBytes(t *testing.T) {
	p := testPartition(3, 20, 100, 10, 5)
	m := models.NewSoftmax(100, 10)
	cfg := engine.FedAvg(4, 1, 3, 4, 3)
	cfg.Seed = 12
	dim := m.Dim()
	anchor := testVec(99, dim)

	meter := func(codec Codec) float64 {
		c, wg := launchTwoPhase(t, p, m, cfg.Seed)
		defer c.Close()
		c.SetCodec(codec)
		s0, r0 := c.Bandwidth()
		const rounds = 3
		for round := 1; round <= rounds; round++ {
			if _, err := c.Round(round, anchor, cfg); err != nil {
				t.Fatal(err)
			}
		}
		s1, r1 := c.Bandwidth()
		c.Shutdown()
		wg.Wait()
		return float64((s1-s0)+(r1-r0)) / rounds
	}

	exact := meter(CodecFloat64)
	for _, tc := range []struct {
		codec Codec
		min   float64
	}{{CodecInt8, 7}, {CodecTopK, 11}} {
		ratio := exact / meter(tc.codec)
		if ratio < tc.min {
			t.Fatalf("%v saved only %.1fx over float64, want ≥ %vx", tc.codec, ratio, tc.min)
		}
		if want := CompressionRatio(tc.codec, dim, TopKFor(0, dim)); math.Abs(ratio-want) > 1e-9 {
			t.Fatalf("%v: measured ratio %v, CompressionRatio says %v", tc.codec, ratio, want)
		}
	}
}

// TestRoundStatsExactWireAccounting pins the RoundStats byte counters to
// the closed-form wire sizes: with the framed protocol the per-round
// numbers are exact, not approximations — the downlink is
// RequestWireSize and the topk uplink is the frame fixed part plus the
// topk layout's 24 + 5k bytes, per worker.
func TestRoundStatsExactWireAccounting(t *testing.T) {
	p := testPartition(3, 20, 100, 10, 5)
	m := models.NewSoftmax(100, 10)
	cfg := engine.FedAvg(3, 1, 3, 4, 3)
	cfg.Seed = 13
	dim := m.Dim()

	for _, codec := range allCodecs {
		c, wg := launchTwoPhase(t, p, m, cfg.Seed)
		c.SetCodec(codec)
		x := c.Executor(cfg.Local)
		selected := []int{0, 1, 2}
		var rs obs.RoundStats
		var res engine.RoundResult
		spec := engine.RoundSpec{Round: 1, Anchor: make([]float64, dim), Selected: selected, Stats: &rs}
		if err := x.RunRound(context.Background(), spec, &res); err != nil {
			t.Fatal(err)
		}

		topK := 0
		if codec == CodecTopK {
			topK = TopKFor(0, dim)
		}
		wantSent := int64(len(selected) * RequestWireSize(codec, dim, false))
		wantRecv := int64(len(selected) * ReplyWireSize(codec, dim, topK))
		if codec == CodecTopK {
			// The uplink vector body is the topk layout: dim(u32) k(u32)
			// lo(f64) step(f64), then a u32 index and an int8 level per kept
			// coordinate.
			alt := int64(len(selected) * (frameHeaderSize + 27 + 24 + 5*topK))
			if wantRecv != alt {
				t.Fatalf("ReplyWireSize %d disagrees with the topk layout's %d", wantRecv, alt)
			}
		}
		if rs.BytesSent != wantSent {
			t.Fatalf("%v: BytesSent = %d, exact size says %d", codec, rs.BytesSent, wantSent)
		}
		if rs.BytesRecv != wantRecv {
			t.Fatalf("%v: BytesRecv = %d, exact size says %d", codec, rs.BytesRecv, wantRecv)
		}
		if rs.Codec != codec.String() {
			t.Fatalf("RoundStats.Codec = %q, want %q", rs.Codec, codec)
		}
		c.Shutdown()
		wg.Wait()
		c.Close()
	}
}

// TestCodecMismatchRejected: a peer replying in another codec than the
// round asked for must be rejected by the coordinator (dropout after
// retries), never silently dequantized into the aggregate.
func TestCodecMismatchRejected(t *testing.T) {
	p := testPartition(2, 10, 3, 2, 9)
	m := models.NewSoftmax(3, 2)
	cfg := engine.FedAvg(3, 1, 2, 2, 1)
	cfg.Seed = 14

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w, _ := NewWorker(addr, 0, p.Clients[0], m, cfg.Seed)
		if err := w.Serve(); err != nil {
			t.Errorf("worker 0 serve: %v", err)
		}
	}()
	go float32Peer(t, addr, 1, int64(p.Clients[1].N()), &wg) // coordinator expects float64
	c, err := NewCoordinatorOn(ln, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var faultErr error
	c.SetFaultHandler(func(id int, err error) {
		if id == 1 {
			faultErr = err
		}
	})
	locals, err := c.Round(1, make([]float64, m.Dim()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if locals[0] == nil {
		t.Fatal("well-behaved worker dropped")
	}
	if locals[1] != nil {
		t.Fatal("mismatched-codec reply was accepted into the round")
	}
	if faultErr == nil || !strings.Contains(faultErr.Error(), "codec") {
		t.Fatalf("fault handler saw %v, want a codec mismatch", faultErr)
	}
	c.Shutdown()
	wg.Wait()
}

// float32Peer handshakes as worker id and answers every round request with
// the anchor in a float32 reply, whatever codec the request asked for: the
// misconfigured peer the coordinator must reject.
func float32Peer(t *testing.T, addr string, id int, samples int64, done *sync.WaitGroup) {
	defer done.Done()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("float32 peer %d: %v", id, err)
		return
	}
	defer conn.Close()
	fw := frameWriter{w: conn}
	fr := frameReader{r: conn}
	buf := marshalHello(nil, workerHello(id, samples))
	if err := fw.writeFrame(buf); err != nil {
		t.Errorf("float32 peer %d hello: %v", id, err)
		return
	}
	var req RoundRequest
	var sc replyScratch
	for {
		typ, payload, err := fr.next()
		if err != nil {
			return // torn down after its rejected replies
		}
		if typ != msgRoundRequest {
			t.Errorf("float32 peer %d: frame type %d", id, typ)
			return
		}
		if err := unmarshalRequest(payload, &req); err != nil {
			t.Errorf("float32 peer %d: %v", id, err)
			return
		}
		if req.Done {
			return
		}
		rep := RoundReply{ClientID: id, Round: req.Round, Codec: CodecFloat32, Local: req.Anchor}
		buf = marshalReply(buf[:0], &rep, req.Anchor, &sc, req.TopK)
		if err := fw.writeFrame(buf); err != nil {
			return
		}
	}
}

// TestQuantizedCodecsStillTrain: end-to-end sanity that the lossy codecs
// remain optimizers, not noise generators — each reaches a loss close to
// the exact mode's on the small task.
func TestQuantizedCodecsStillTrain(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 16)
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 6)
	cfg.Seed = 17

	loss := func(codec Codec) float64 {
		c, wg := launchTwoPhase(t, p, m, cfg.Seed)
		defer c.Close()
		c.SetCodec(codec)
		if err := c.SetTopKFrac(0.25); err != nil {
			t.Fatal(err)
		}
		_, series, err := train(c, make([]float64, m.Dim()), cfg, m.Clone(), p.Clients)
		if err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		last, _ := series.Last()
		return last.TrainLoss
	}
	exact := loss(CodecFloat64)
	for _, codec := range []Codec{CodecInt16, CodecInt8, CodecTopK} {
		got := loss(codec)
		if math.IsNaN(got) || got > exact+0.25*(1+math.Abs(exact)) {
			t.Fatalf("%v trained to %v, exact mode to %v", codec, got, exact)
		}
	}
}

// TestSetTopKFracValidation: the coordinator must reject fractions outside
// (0,1] with an actionable error instead of silently producing a k of 0
// (which historically sent empty sparse replies that zeroed the round).
func TestSetTopKFracValidation(t *testing.T) {
	var c Coordinator
	for _, bad := range []float64{0, -0.1, 1.0001, 2, math.NaN()} {
		err := c.SetTopKFrac(bad)
		if err == nil {
			t.Fatalf("SetTopKFrac(%v) accepted", bad)
		}
		if !strings.Contains(err.Error(), "(0,1]") {
			t.Fatalf("SetTopKFrac(%v) error should state the valid range, got: %v", bad, err)
		}
	}
	for _, ok := range []float64{0.001, 0.25, 1} {
		if err := c.SetTopKFrac(ok); err != nil {
			t.Fatalf("SetTopKFrac(%v): %v", ok, err)
		}
	}
}

// TestTracedWireAccountingExact: span shipping makes the uplink bigger than
// the closed-form ReplyWireSize, but never UNACCOUNTED — the decoder
// measures the excess into RoundStats.SpanBytes, so the identity
// BytesRecv − SpanBytes == Σ ReplyWireSize holds byte-exactly, and the
// downlink is Σ RequestWireSize with the 16-byte trace context included.
func TestTracedWireAccountingExact(t *testing.T) {
	p := testPartition(3, 20, 3, 3, 19)
	m := models.NewSoftmax(3, 3)
	dim := m.Dim()

	for _, codec := range []Codec{CodecFloat64, CodecTopK} {
		cfg := engine.FedProxVR(optim.SARAH, 6, 1, 0.2, 5, 4, 3)
		cfg.Seed = 19
		c, wg := launchTracedWorkers(t, p, m, cfg.Seed, nil)
		c.SetCodec(codec)
		eng, err := engine.New(cfg, dim, c.Weights(), c.Executor(cfg.Local))
		if err != nil {
			t.Fatal(err)
		}
		eng.SetTracer(trace.New("coordinator"))
		sink := &memSink{}
		eng.SetStats(obs.NewCollector(sink))
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		c.Close()

		topK := 0
		if codec == CodecTopK {
			topK = TopKFor(0, dim)
		}
		n := len(p.Clients)
		if len(sink.rounds) != cfg.Rounds {
			t.Fatalf("%v: %d round records, want %d", codec, len(sink.rounds), cfg.Rounds)
		}
		for _, rs := range sink.rounds {
			if rs.SpanBytes <= 0 {
				t.Fatalf("%v round %d: traced run measured no span bytes", codec, rs.Round)
			}
			wantSent := int64(n * RequestWireSize(codec, dim, true))
			if rs.BytesSent != wantSent {
				t.Fatalf("%v round %d: BytesSent = %d, exact traced size says %d",
					codec, rs.Round, rs.BytesSent, wantSent)
			}
			wantRecv := int64(n * ReplyWireSize(codec, dim, topK))
			if got := rs.BytesRecv - rs.SpanBytes; got != wantRecv {
				t.Fatalf("%v round %d: BytesRecv − SpanBytes = %d − %d = %d, exact size says %d",
					codec, rs.Round, rs.BytesRecv, rs.SpanBytes, got, wantRecv)
			}
		}
	}
}
