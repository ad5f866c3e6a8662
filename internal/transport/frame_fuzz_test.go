package transport

import (
	"bytes"
	"testing"

	"fedproxvr/internal/optim"
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
// and a lying length prefix. The Hello in its node shape, the tree's
// PartialSum, the lease fence's LeaseReject, the Hello in its worker and
// leased shapes, and requests naming an unknown estimator or return policy
// follow, appended so earlier seed indices stay put. `go
// test` replays the corpus on every plain run — make check covers it — and
// `make fuzz` (go test -fuzz=FuzzFrameDecode) explores from there.
func FuzzFrameDecode(f *testing.F) {
	anchor := testVec(1, 12)
	for _, codec := range allCodecs {
		req := marshalRequest(nil, &RoundRequest{Round: 3, Codec: codec, Anchor: anchor, Local: wireLocal, TopK: 4})
		f.Add(req)
		ref := codecReference(codec, anchor, nil)
		rep := marshalReply(nil, &RoundReply{ClientID: 1, Round: 3, Codec: codec, Local: ref}, ref, new(replyScratch), 4)
		f.Add(rep)
		f.Add(req[:len(req)-3])
		f.Add(append(append([]byte(nil), rep...), 0x7F))
	}
	worker := marshalHello(nil, workerHello(9, 100))
	f.Add(worker)
	done := marshalRequest(nil, &RoundRequest{Done: true})
	f.Add(done)
	errRep := marshalReply(nil, &RoundReply{ClientID: 2, Round: 1, Err: "boom"}, nil, new(replyScratch), 0)
	f.Add(errRep)
	// A frame whose length prefix claims more than the stream holds.
	f.Add([]byte{frameMagic, msgRoundReply, 0xF0, 0xFF, 0x00, 0x00, 1, 2, 3})
	// What a peer on the removed gob wire opens with: no magic, rejected.
	f.Add(legacyGobHello(f))
	// The handshake, tree and lease frames: one well-formed frame each,
	// then its payload truncated and with a trailing byte, each re-framed
	// so the decoder sees the bad body instead of the reader a short stream.
	leased := workerHello(2, 30)
	leased.JobID, leased.Epoch = "job-a", 2
	for _, frame := range [][]byte{
		marshalHello(nil, &Hello{ClientID: 1, LoDevice: 40, NumDevices: 20, NumSamples: 800, Partial: true}),
		marshalPartialSum(nil, &PartialSum{ShardID: 1, Round: 3, Devices: 2, GradEvals: 7, Weight: 80, Sum: anchor,
			Spans: []trace.WireSpan{{ID: 1, Name: "shard-solve", End: 0.5}}}),
		marshalLeaseReject(nil, &LeaseReject{JobID: "job-a", Epoch: 2}),
		worker,
		marshalHello(nil, leased),
	} {
		payload := frame[frameHeaderSize:]
		f.Add(frame)
		f.Add(reframe(frame[1], payload[:len(payload)-3]))
		f.Add(reframe(frame[1], append(append([]byte(nil), payload...), 0x7F)))
	}
	// Requests whose estimator or return byte names no policy.
	badEstimator, badReturn := wireLocal, wireLocal
	badEstimator.Estimator = optim.SARAH + 1
	badReturn.Return = optim.ReturnRandom + 1
	f.Add(marshalRequest(nil, &RoundRequest{Round: 3, Anchor: anchor, Local: badEstimator}))
	f.Add(marshalRequest(nil, &RoundRequest{Round: 3, Anchor: anchor, Local: badReturn}))

	ref := testVec(2, 12)
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := frameReader{r: bytes.NewReader(stream)}
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
