package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/trace"
)

var allCodecs = []Codec{CodecFloat64, CodecFloat32, CodecInt16, CodecInt8, CodecTopK}

// codecTol returns the worst-case absolute reconstruction error for a
// vector quantized under c whose values span width (hi−lo): half a level
// step, plus float slack.
func codecTol(c Codec, width, scale float64) float64 {
	switch c {
	case CodecFloat64:
		return 0
	case CodecFloat32:
		return scale * 1e-6
	case CodecInt16:
		return width/(2*int16Levels) + 1e-12
	default: // int8, topk values
		return width/(2*int8Levels) + 1e-12
	}
}

func testVec(seed int64, dim int) []float64 {
	rng := randx.New(seed)
	v := make([]float64, dim)
	randx.NormalVec(rng, v, 0, 1)
	return v
}

func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi - lo
}

// workerHello is the Hello a Worker for device id holding samples training
// samples says: the peer whose range is that one device.
func workerHello(id int, samples int64) *Hello {
	return &Hello{ClientID: id, LoDevice: id, NumDevices: 1, NumSamples: samples}
}

// TestHelloRoundTrip: the one Hello in each shape a fleet peer sends — a
// worker, an aggregation-tree node and a leased worker — round-trips
// exactly, the unleased shapes at HelloWireSize, and every truncation and a
// trailing byte are rejected.
func TestHelloRoundTrip(t *testing.T) {
	leased := workerHello(7, 40)
	leased.JobID, leased.Epoch = "job-a", 3
	for _, h := range []*Hello{
		workerHello(42, 1234),
		{ClientID: 3, LoDevice: 4000, NumDevices: 1000, NumSamples: 123456789, Partial: true},
		leased,
	} {
		frame := marshalHello(nil, h)
		if h.JobID == "" && len(frame) != HelloWireSize {
			t.Fatalf("hello frame is %d bytes, HelloWireSize says %d", len(frame), HelloWireSize)
		}
		got, err := unmarshalHello(frame[frameHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if got != *h {
			t.Fatalf("decoded %+v, want %+v", got, *h)
		}
		payload := frame[frameHeaderSize:]
		for n := 0; n < len(payload); n++ {
			if n == HelloWireSize-frameHeaderSize {
				continue // a leased Hello cut before its extension is an unleased one
			}
			if _, err := unmarshalHello(payload[:n]); err == nil {
				t.Fatalf("hello %+v truncated to %d bytes accepted", *h, n)
			}
		}
		if _, err := unmarshalHello(append(append([]byte(nil), payload...), 0x7F)); err == nil {
			t.Fatalf("hello %+v with a trailing byte accepted", *h)
		}
	}
}

// TestHelloRejectsMalformedIdentity: a Hello whose device range, sample
// count or role could not belong to a fleet peer fails to decode, naming
// the peer.
func TestHelloRejectsMalformedIdentity(t *testing.T) {
	for _, tc := range []struct {
		h    Hello
		want string
	}{
		{Hello{ClientID: 1, LoDevice: 1, NumDevices: 1, NumSamples: -5}, "peer 1 claims -5 training samples"},
		{Hello{ClientID: 2, LoDevice: 0, NumDevices: 0, NumSamples: 5, Partial: true}, "peer 2 claims device range [0,+0)"},
		{Hello{ClientID: 3, LoDevice: -1, NumDevices: 1, NumSamples: 5}, "peer 3 claims device range [-1,+1)"},
		{Hello{ClientID: 4, LoDevice: 4, NumDevices: 2, NumSamples: 5}, "peer 4 claims device range [4,+2)"},
	} {
		frame := marshalHello(nil, &tc.h)
		if _, err := unmarshalHello(frame[frameHeaderSize:]); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("hello %+v: error %v, want one naming %q", tc.h, err, tc.want)
		}
	}
	frame := marshalHello(nil, workerHello(5, 5))
	frame[frameHeaderSize+1] = 7 // the role byte
	if _, err := unmarshalHello(frame[frameHeaderSize:]); err == nil || !strings.Contains(err.Error(), "unknown role 7") {
		t.Errorf("unknown role: error %v", err)
	}
}

func TestHelloRejectsBadVersion(t *testing.T) {
	frame := marshalHello(nil, workerHello(1, 1))
	frame[frameHeaderSize] = frameVersion + 1
	if _, err := unmarshalHello(frame[frameHeaderSize:]); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

// TestRequestRoundTrip checks, per codec: the frame size matches
// RequestWireSize exactly, the config fields survive, and the decoded
// anchor is BIT-IDENTICAL to codecReference's output — the property the
// delta codecs rely on (coordinator and worker must agree on the
// reference without exchanging it).
func TestRequestRoundTrip(t *testing.T) {
	for _, codec := range allCodecs {
		for _, dim := range []int{0, 1, 7, 100} {
			anchor := testVec(int64(dim)+7, dim)
			req := RoundRequest{
				Round: 9, Codec: codec, Anchor: anchor, TopK: 5,
				Local: optim.LocalConfig{
					Estimator: optim.SARAH, Eta: 0.05, Tau: 12, Batch: 4,
					Mu: 0.9, Return: optim.ReturnLast, Schedule: optim.EtaFixed,
					ClipNorm: 2.5,
				},
			}
			frame := marshalRequest(nil, &req)
			if want := RequestWireSize(codec, dim, false); len(frame) != want {
				t.Fatalf("%v dim %d: frame %d bytes, RequestWireSize %d", codec, dim, len(frame), want)
			}
			var got RoundRequest
			if err := unmarshalRequest(frame[frameHeaderSize:], &got); err != nil {
				t.Fatalf("%v dim %d: %v", codec, dim, err)
			}
			if got.Round != 9 || got.Codec != codec || got.TopK != 5 || got.Done {
				t.Fatalf("%v: header fields %+v", codec, got)
			}
			if got.Local != req.Local {
				t.Fatalf("%v: config %+v, want %+v", codec, got.Local, req.Local)
			}
			ref := codecReference(codec, anchor, nil)
			if len(got.Anchor) != dim {
				t.Fatalf("%v dim %d: decoded %d coords", codec, dim, len(got.Anchor))
			}
			for i := range ref {
				if got.Anchor[i] != ref[i] {
					t.Fatalf("%v: anchor[%d] = %v, codecReference says %v (must be bit-identical)",
						codec, i, got.Anchor[i], ref[i])
				}
			}
			tol := codecTol(codec, spread(anchor), 1)
			for i := range anchor {
				if math.Abs(got.Anchor[i]-anchor[i]) > tol {
					t.Fatalf("%v: anchor[%d] error %g > tol %g", codec,
						i, math.Abs(got.Anchor[i]-anchor[i]), tol)
				}
			}
		}
	}
}

func TestRequestTraceAndDoneRoundTrip(t *testing.T) {
	req := RoundRequest{Round: 3, Codec: CodecFloat64, Anchor: testVec(1, 4), TraceID: 111, SpanID: 222}
	frame := marshalRequest(nil, &req)
	if want := RequestWireSize(CodecFloat64, 4, true); len(frame) != want {
		t.Fatalf("traced frame %d bytes, want %d", len(frame), want)
	}
	var got RoundRequest
	if err := unmarshalRequest(frame[frameHeaderSize:], &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 111 || got.SpanID != 222 {
		t.Fatalf("trace context %d/%d", got.TraceID, got.SpanID)
	}

	done := RoundRequest{Done: true}
	frame = marshalRequest(frame[:0], &done)
	if len(frame) != DoneWireSize {
		t.Fatalf("done frame %d bytes, want %d", len(frame), DoneWireSize)
	}
	// Reuse the traced decode target: every field must be overwritten.
	if err := unmarshalRequest(frame[frameHeaderSize:], &got); err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.TraceID != 0 || len(got.Anchor) != 0 {
		t.Fatalf("done decode left stale state: %+v", got)
	}
}

// TestReplyRoundTrip checks, per codec: frame size matches ReplyWireSize,
// exact-mode identity is bit-perfect, and the quantized modes reconstruct
// within half a level step of the delta's range.
func TestReplyRoundTrip(t *testing.T) {
	for _, codec := range allCodecs {
		for _, dim := range []int{0, 1, 7, 100} {
			anchor := testVec(int64(dim)+13, dim)
			ref := codecReference(codec, anchor, nil)
			// The local model is the reference plus a sparse-ish delta, the
			// shape a prox step produces.
			local := append([]float64(nil), ref...)
			rng := randx.New(int64(dim) + 29)
			for i := range local {
				if rng.Intn(3) == 0 {
					local[i] += 0.2 * rng.NormFloat64()
				}
			}
			topK := clampTopK(dim/4, dim)
			rep := RoundReply{ClientID: 3, Round: 9, Codec: codec, Local: local,
				GradEvals: 987654321, SolveSeconds: 0.25}
			frame := marshalReply(nil, &rep, ref, new(replyScratch), topK)
			if want := ReplyWireSize(codec, dim, topK); len(frame) != want {
				t.Fatalf("%v dim %d: frame %d bytes, ReplyWireSize %d", codec, dim, len(frame), want)
			}
			var got RoundReply
			if err := unmarshalReply(frame[frameHeaderSize:], &got, ref); err != nil {
				t.Fatalf("%v dim %d: %v", codec, dim, err)
			}
			if got.ClientID != 3 || got.Round != 9 || got.Codec != codec ||
				got.GradEvals != 987654321 || got.SolveSeconds != 0.25 || got.Err != "" {
				t.Fatalf("%v: header fields %+v", codec, got)
			}
			if len(got.Local) != dim {
				t.Fatalf("%v dim %d: decoded %d coords", codec, dim, len(got.Local))
			}
			if codec == CodecFloat64 {
				for i := range local {
					if got.Local[i] != local[i] {
						t.Fatalf("exact mode differs at %d: %v vs %v", i, got.Local[i], local[i])
					}
				}
				continue
			}
			delta := make([]float64, dim)
			for i := range delta {
				delta[i] = local[i] - ref[i]
			}
			tol := codecTol(codec, spread(delta), math.Max(spread(local), 1))
			if codec == CodecTopK {
				// Kept coordinates reconstruct within int8 tolerance of the
				// true top-k delta; dropped ones stay exactly at the ref.
				sv, err := TopK(delta, topK)
				if err != nil && dim > 0 {
					t.Fatal(err)
				}
				kept := map[int]bool{}
				if sv != nil {
					for _, j := range sv.Indices {
						kept[int(j)] = true
					}
				}
				svTol := codecTol(CodecInt8, spreadSparse(sv), 1)
				for i := range local {
					if kept[i] {
						if math.Abs(got.Local[i]-local[i]) > svTol {
							t.Fatalf("topk kept[%d] error %g > %g", i, math.Abs(got.Local[i]-local[i]), svTol)
						}
					} else if got.Local[i] != ref[i] {
						t.Fatalf("topk dropped[%d] moved off the reference", i)
					}
				}
				continue
			}
			for i := range local {
				if math.Abs(got.Local[i]-local[i]) > tol {
					t.Fatalf("%v: local[%d] error %g > tol %g", codec, i, math.Abs(got.Local[i]-local[i]), tol)
				}
			}
		}
	}
}

func spreadSparse(sv *SparseVec) float64 {
	if sv == nil {
		return 0
	}
	return spread(sv.Values)
}

func TestReplyErrorAndSpansRoundTrip(t *testing.T) {
	rep := RoundReply{ClientID: 7, Round: 4, Codec: CodecInt8, Err: "injected flake"}
	frame := marshalReply(nil, &rep, nil, new(replyScratch), 0)
	var got RoundReply
	if err := unmarshalReply(frame[frameHeaderSize:], &got, nil); err != nil {
		t.Fatal(err)
	}
	if got.Err != "injected flake" || got.ClientID != 7 || got.Round != 4 {
		t.Fatalf("error reply %+v", got)
	}
	if len(got.Local) != 0 {
		t.Fatalf("error reply carried a vector: %v", got.Local)
	}

	spans := []trace.WireSpan{
		{ID: 1, Parent: 0, Name: "solve", Start: 0.001, End: 0.2},
		{ID: 2, Parent: 1, Name: "anchor-grad", Start: 0.002, End: 0.05},
		{ID: 3, Parent: 1, Name: "inner-loop", Start: 0.05, End: 0.19},
	}
	ref := testVec(5, 16)
	rep = RoundReply{ClientID: 1, Round: 2, Codec: CodecFloat64, Local: testVec(6, 16), Spans: spans}
	frame = marshalReply(frame[:0], &rep, ref, new(replyScratch), 0)
	if err := unmarshalReply(frame[frameHeaderSize:], &got, ref); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got.Spans), len(spans))
	}
	for i, s := range spans {
		if got.Spans[i] != s {
			t.Fatalf("span %d = %+v, want %+v", i, got.Spans[i], s)
		}
	}
}

// TestFrameDecoderRejectsMalformed drives the decoders with systematically
// corrupted inputs: truncations at every length, trailing garbage, bad
// codecs, out-of-range topk indices. Every case must error, never panic.
func TestFrameDecoderRejectsMalformed(t *testing.T) {
	anchor := testVec(3, 10)
	reqFrame := marshalRequest(nil, &RoundRequest{Round: 1, Codec: CodecInt8, Anchor: anchor, TopK: 3})
	rep := RoundReply{ClientID: 1, Round: 1, Codec: CodecTopK, Local: testVec(4, 10)}
	ref := codecReference(CodecTopK, anchor, nil)
	repFrame := marshalReply(nil, &rep, ref, new(replyScratch), 3)

	for n := 0; n < len(reqFrame)-frameHeaderSize; n++ {
		var r RoundRequest
		if err := unmarshalRequest(reqFrame[frameHeaderSize:frameHeaderSize+n], &r); err == nil {
			t.Fatalf("request truncated to %d bytes accepted", n)
		}
	}
	for n := 0; n < len(repFrame)-frameHeaderSize; n++ {
		var r RoundReply
		if err := unmarshalReply(repFrame[frameHeaderSize:frameHeaderSize+n], &r, ref); err == nil {
			t.Fatalf("reply truncated to %d bytes accepted", n)
		}
	}

	// Trailing garbage.
	var r RoundRequest
	if err := unmarshalRequest(append(append([]byte(nil), reqFrame[frameHeaderSize:]...), 0xAA), &r); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Unknown codec byte (offset: round u32 + flags u8).
	bad := append([]byte(nil), reqFrame[frameHeaderSize:]...)
	bad[5] = 200
	if err := unmarshalRequest(bad, &r); err == nil {
		t.Fatal("unknown codec accepted")
	}
	// Delta reply without a matching reference.
	var rr RoundReply
	if err := unmarshalReply(repFrame[frameHeaderSize:], &rr, ref[:4]); err == nil {
		t.Fatal("short reference accepted for a delta codec")
	}
	// Topk index out of range: k sits right after the span count; indices
	// follow lo/step. Corrupt the first index to 0xFFFFFFFF.
	badRep := append([]byte(nil), repFrame[frameHeaderSize:]...)
	// layout: i32 u32 u8 u8 i64 f64 | uvarint(0)=1 | dim u32 k u32 lo f64 step f64 idx...
	idxOff := 4 + 4 + 1 + 1 + 8 + 8 + 1 + 4 + 4 + 8 + 8
	for i := 0; i < 4; i++ {
		badRep[idxOff+i] = 0xFF
	}
	if err := unmarshalReply(badRep, &rr, ref); err == nil {
		t.Fatal("out-of-range topk index accepted")
	}
	// A span count, or a span name length, past MaxInt must be refused
	// rather than wrap negative into make or a slice bound.
	head := repFrame[frameHeaderSize : frameHeaderSize+4+4+1+1+8+8]
	for _, spans := range [][]byte{
		binary.AppendUvarint(nil, 1<<63),
		append([]byte{1, 1, 0}, binary.AppendUvarint(nil, 1<<63-1)...),
	} {
		if err := unmarshalReply(append(append([]byte(nil), head...), spans...), &rr, ref); err == nil {
			t.Fatalf("span block % x accepted", spans)
		}
	}
}

func TestFrameReaderRejectsBadStream(t *testing.T) {
	// Bad magic.
	fr := frameReader{r: bufio.NewReader(bytes.NewReader([]byte{0x00, 1, 0, 0, 0, 0}))}
	if _, _, err := fr.next(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	// Oversized payload length.
	hdr := []byte{frameMagic, msgRoundReply, 0xFF, 0xFF, 0xFF, 0xFF}
	fr = frameReader{r: bufio.NewReader(bytes.NewReader(hdr))}
	if _, _, err := fr.next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized payload: %v", err)
	}
	// Truncated payload.
	frame := marshalHello(nil, workerHello(1, 1))
	fr = frameReader{r: bufio.NewReader(bytes.NewReader(frame[:len(frame)-2]))}
	if _, _, err := fr.next(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestFrameReaderWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	h := marshalHello(nil, workerHello(2, 50))
	req := marshalRequest(nil, &RoundRequest{Round: 1, Codec: CodecFloat32, Anchor: testVec(8, 6)})
	if err := fw.writeFrame(h); err != nil {
		t.Fatal(err)
	}
	if err := fw.writeFrame(req); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: bufio.NewReader(&buf)}
	typ, payload, err := fr.next()
	if err != nil || typ != msgHello {
		t.Fatalf("first frame: type %d err %v", typ, err)
	}
	if _, err := unmarshalHello(payload); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = fr.next()
	if err != nil || typ != msgRoundRequest {
		t.Fatalf("second frame: type %d err %v", typ, err)
	}
	var got RoundRequest
	if err := unmarshalRequest(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != 1 || got.Codec != CodecFloat32 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestWireSizeHelpers pins the closed-form size arithmetic against the
// real encoders across codecs and dims (the RoundStats accounting tests
// build on these helpers being exact).
func TestWireSizeHelpers(t *testing.T) {
	for _, codec := range allCodecs {
		for _, dim := range []int{0, 1, 33, 1010} {
			anchor := testVec(int64(dim), dim)
			ref := codecReference(codec, anchor, nil)
			topK := TopKFor(0.05, dim)
			reqF := marshalRequest(nil, &RoundRequest{Round: 2, Codec: codec, Anchor: anchor, TopK: topK})
			repF := marshalReply(nil, &RoundReply{ClientID: 0, Round: 2, Codec: codec, Local: ref}, ref, new(replyScratch), topK)
			if got, want := len(reqF)+len(repF), RoundWireSize(codec, dim, topK, false); got != want {
				t.Fatalf("%v dim %d: encoders moved %d bytes, RoundWireSize says %d", codec, dim, got, want)
			}
		}
	}
}

func TestParseCodec(t *testing.T) {
	for _, c := range allCodecs {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Fatal("unknown codec name accepted")
	}
	if Codec(99).Valid() {
		t.Fatal("codec 99 claims valid")
	}
}
