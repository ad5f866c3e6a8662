package transport

import (
	"context"
	"testing"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
)

// Recorded wire benchmarks (make bench / benchgate): the frame marshal and
// unmarshal hot paths at the 1010-parameter softmax size (plus an exact
// reply decode at the benchmark fleet's 7850), and the full
// coordinator↔worker round over loopback TCP. The encoders write into
// reused buffers and the decoders into reused structs, matching how the
// coordinator and worker call them, so the allocs/op budgets recorded in
// BENCH_engine.json reflect the steady-state round path.

var (
	benchBytes []byte
	benchVec   []float64
)

func BenchmarkFrameEncodeRequest(b *testing.B) {
	req := RoundRequest{
		Round: 5, Codec: CodecInt8, TopK: 50,
		Local:  optim.LocalConfig{Eta: 0.1, Mu: 0.2, Tau: 4, Batch: 8},
		Anchor: testVec(3, 1010),
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = marshalRequest(buf[:0], &req)
	}
	benchBytes = buf
}

func BenchmarkFrameDecodeRequest(b *testing.B) {
	frame := marshalRequest(nil, &RoundRequest{
		Round: 5, Codec: CodecInt8, TopK: 50,
		Local:  optim.LocalConfig{Eta: 0.1, Mu: 0.2, Tau: 4, Batch: 8},
		Anchor: testVec(3, 1010),
	})
	var req RoundRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := unmarshalRequest(frame[frameHeaderSize:], &req); err != nil {
			b.Fatal(err)
		}
	}
	benchVec = req.Anchor
}

func BenchmarkFrameEncodeReply(b *testing.B) {
	ref := codecReference(CodecTopK, testVec(3, 1010), nil)
	local := testVec(4, 1010)
	rep := RoundReply{ClientID: 1, Round: 5, Codec: CodecTopK, Local: local}
	var buf []byte
	var sc replyScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = marshalReply(buf[:0], &rep, ref, &sc, 50)
	}
	benchBytes = buf
}

// BenchmarkFrameDecodeReplyF64Dim7850 decodes an exact-mode reply at the
// benchmark fleet's model size (the 7850-parameter MNIST softmax).
func BenchmarkFrameDecodeReplyF64Dim7850(b *testing.B) {
	ref := testVec(3, 7850)
	frame := marshalReply(nil, &RoundReply{
		ClientID: 1, Round: 5, Codec: CodecFloat64, Local: testVec(4, 7850),
	}, ref, new(replyScratch), 0)
	var rep RoundReply
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := unmarshalReply(frame[frameHeaderSize:], &rep, ref); err != nil {
			b.Fatal(err)
		}
	}
	benchVec = rep.Local
}

func BenchmarkFrameDecodeReply(b *testing.B) {
	ref := codecReference(CodecTopK, testVec(3, 1010), nil)
	frame := marshalReply(nil, &RoundReply{
		ClientID: 1, Round: 5, Codec: CodecTopK, Local: testVec(4, 1010),
	}, ref, new(replyScratch), 50)
	var rep RoundReply
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := unmarshalReply(frame[frameHeaderSize:], &rep, ref); err != nil {
			b.Fatal(err)
		}
	}
	benchVec = rep.Local
}

// wireRoundFleet connects a 3-worker softmax fleet speaking codec and
// returns round, which runs one more wire round — frame encode, write,
// worker solve, reply decode — via the executor path the engine uses
// (results valid until the next call, no defensive clone), and stop, which
// shuts the fleet down. The first round, which sizes every buffer, has
// already run.
func wireRoundFleet(tb testing.TB, codec Codec) (round, stop func()) {
	p := testPartition(3, 20, 100, 10, 5)
	m := models.NewSoftmax(100, 10)
	cfg := engine.FedAvg(4, 1, 1, 4, 1)
	cfg.Seed = 21
	c, wg := launchTwoPhase(tb, p, m, cfg.Seed)
	c.SetCodec(codec)
	x := c.Executor(cfg.Local)
	spec := engine.RoundSpec{Anchor: testVec(9, m.Dim()), Selected: []int{0, 1, 2}}
	var res engine.RoundResult
	round = func() {
		spec.Round++
		if err := x.RunRound(context.Background(), spec, &res); err != nil {
			tb.Fatal(err)
		}
	}
	round()
	return round, func() {
		c.Shutdown()
		wg.Wait()
		c.Close()
	}
}

func benchWireRound(b *testing.B, codec Codec) {
	round, stop := wireRoundFleet(b, codec)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
}

func BenchmarkWireRoundFloat64(b *testing.B) { benchWireRound(b, CodecFloat64) }

func BenchmarkWireRoundTopK(b *testing.B) { benchWireRound(b, CodecTopK) }

// TestSteadyStateWireRoundAllocs guards the zero-allocation wire round:
// once the first round has sized every buffer, a round allocates at most
// once across the coordinator and all its workers (AllocsPerRun counts
// every goroutine in the process, so the workers' side is included).
func TestSteadyStateWireRoundAllocs(t *testing.T) {
	for _, codec := range []Codec{CodecFloat64, CodecTopK} {
		round, stop := wireRoundFleet(t, codec)
		allocs := testing.AllocsPerRun(50, round)
		stop()
		if allocs > 1 {
			t.Errorf("%v: a steady-state wire round allocates %v times, want ≤ 1", codec, allocs)
		}
	}
}
