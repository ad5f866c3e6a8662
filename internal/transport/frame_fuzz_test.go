package transport

import (
	"bufio"
	"bytes"
	"testing"

	"fedproxvr/internal/trace"
)

// FuzzFrameDecode drives every frame decoder with arbitrary payloads. The
// decoders sit directly on the network, so the invariant under fuzzing is
// total: any input either decodes or returns an error — no panics, no
// out-of-range indexing, no unbounded allocation (the length checks run
// before the allocations they guard).
//
// The seed corpus (f.Add) holds one well-formed frame per type and codec
// plus classic trouble: truncations, trailing bytes, a hostile topk index,
// and a lying length prefix. The tree (AggHello, PartialSum) and lease
// (LeaseReject) frames follow, appended so earlier seed indices stay put. `go test` replays the corpus on every plain
// run — make check covers it — and `make fuzz` (go test -fuzz=FuzzFrameDecode)
// explores from there.
func FuzzFrameDecode(f *testing.F) {
	anchor := testVec(1, 12)
	for _, codec := range allCodecs {
		req := marshalRequest(nil, &RoundRequest{Round: 3, Codec: codec, Anchor: anchor, TopK: 4})
		f.Add(req)
		ref := codecReference(codec, anchor, nil)
		rep := marshalReply(nil, &RoundReply{ClientID: 1, Round: 3, Codec: codec, Local: ref}, ref, new(replyScratch), 4)
		f.Add(rep)
		f.Add(req[:len(req)-3])
		f.Add(append(append([]byte(nil), rep...), 0x7F))
	}
	f.Add(marshalHello(nil, &Hello{ClientID: 9, NumSamples: 100}))
	done := marshalRequest(nil, &RoundRequest{Done: true})
	f.Add(done)
	errRep := marshalReply(nil, &RoundReply{ClientID: 2, Round: 1, Err: "boom"}, nil, new(replyScratch), 0)
	f.Add(errRep)
	// A frame whose length prefix claims more than the stream holds.
	f.Add([]byte{frameMagic, msgRoundReply, 0xF0, 0xFF, 0x00, 0x00, 1, 2, 3})
	// What a peer on the removed gob wire opens with: no magic, rejected.
	f.Add(legacyGobHello(f))
	// The tree and lease frames: one well-formed frame each, then its
	// payload truncated and with a trailing byte, each re-framed so the
	// decoder sees the bad body instead of the reader a short stream.
	for _, frame := range [][]byte{
		marshalAggHello(nil, &AggHello{ShardID: 1, LoDevice: 40, NumDevices: 20, NumSamples: 800}),
		marshalPartialSum(nil, &PartialSum{ShardID: 1, Round: 3, Devices: 2, GradEvals: 7, Weight: 80, Sum: anchor,
			Spans: []trace.WireSpan{{ID: 1, Name: "shard-solve", End: 0.5}}}),
		marshalLeaseReject(nil, &LeaseReject{JobID: "job-a", Epoch: 2}),
	} {
		payload := frame[frameHeaderSize:]
		f.Add(frame)
		f.Add(reframe(frame[1], payload[:len(payload)-3]))
		f.Add(reframe(frame[1], append(append([]byte(nil), payload...), 0x7F)))
	}

	ref := testVec(2, 12)
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := frameReader{r: bufio.NewReader(bytes.NewReader(stream))}
		for {
			typ, payload, err := fr.next()
			if err != nil {
				return
			}
			switch typ {
			case msgHello:
				_, _ = unmarshalHello(payload)
			case msgRoundRequest:
				var req RoundRequest
				_ = unmarshalRequest(payload, &req)
			case msgRoundReply:
				var rep RoundReply
				// Exercise both the matching and the mismatched reference
				// path (delta decode against wrong dims must error cleanly).
				_ = unmarshalReply(payload, &rep, ref)
				var rep2 RoundReply
				_ = unmarshalReply(payload, &rep2, nil)
			case msgAggHello:
				_, _ = unmarshalAggHello(payload)
			case msgPartialSum:
				var ps PartialSum
				_ = unmarshalPartialSum(payload, &ps)
			case msgLeaseReject:
				_, _ = unmarshalLeaseReject(payload)
			default:
				return
			}
		}
	})
}

// reframe wraps payload in a frame header of type typ with a matching length.
func reframe(typ byte, payload []byte) []byte {
	w := wireBuf{}
	body := w.beginFrame(typ)
	w.bytes(payload)
	w.endFrame(body)
	return w.b
}
