package transport

import (
	"context"
	"testing"

	"fedproxvr/internal/core"
	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
)

// Recorded wire benchmarks (make bench / benchgate): the frame marshal and
// unmarshal hot paths at the 1010-parameter softmax size, and the full
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
	var scratch []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, scratch = marshalReply(buf[:0], &rep, ref, scratch, 50)
	}
	benchBytes = buf
}

func BenchmarkFrameDecodeReply(b *testing.B) {
	ref := codecReference(CodecTopK, testVec(3, 1010), nil)
	frame, _ := marshalReply(nil, &RoundReply{
		ClientID: 1, Round: 5, Codec: CodecTopK, Local: testVec(4, 1010),
	}, ref, nil, 50)
	var rep RoundReply
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := unmarshalReply(frame[frameHeaderSize:], &rep, ref); err != nil {
			b.Fatal(err)
		}
	}
	benchVec = rep.Local
}

// benchWireRound drives full coordinator↔worker rounds over loopback TCP —
// frame encode, write, worker solve, reply decode — via the executor path
// the engine uses (results valid until the next call, no defensive clone).
func benchWireRound(b *testing.B, codec Codec) {
	p := testPartition(3, 20, 100, 10, 5)
	m := models.NewSoftmax(100, 10, 0)
	cfg := core.FedAvg(4, 1, 1, 4, 1)
	cfg.Seed = 21
	c, wg := launchFleet(b, p, m, cfg.Seed, func(addr string, id int, shard *data.Dataset) (*Worker, error) {
		return NewWorker(addr, id, shard, m, cfg.Seed)
	})
	defer c.Close()
	c.SetCodec(codec)
	x := c.Executor(cfg.Local)
	w0 := testVec(9, m.Dim())
	ctx := context.Background()
	spec := engine.RoundSpec{Round: 1, Anchor: w0, Selected: []int{0, 1, 2}}
	var res engine.RoundResult
	if err := x.RunRound(ctx, spec, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Round++
		if err := x.RunRound(ctx, spec, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Shutdown()
	wg.Wait()
}

func BenchmarkWireRoundFloat64(b *testing.B) { benchWireRound(b, CodecFloat64) }

func BenchmarkWireRoundTopK(b *testing.B) { benchWireRound(b, CodecTopK) }
