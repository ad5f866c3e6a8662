package transport

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fedproxvr/internal/randx"
)

// Per-element reference codecs: every vector body written and read with one
// wireBuf/wireCursor call per element, the way the wire was first built.
// The bulk codecs in frame.go must match them bit for bit, in both
// directions, on every codec.

var refDims = []int{0, 1, 3, 4, 7850}

func refPutU16(w *wireBuf, v uint16) {
	w.u8(byte(v))
	w.u8(byte(v >> 8))
}

func refGetU16(c *wireCursor) uint16 {
	lo := c.u8("ref u16")
	return uint16(lo) | uint16(c.u8("ref u16"))<<8
}

func refPutLevels(w *wireBuf, v []float64, c Codec) {
	levels, _ := codecLevels(c)
	lo, step := quantBounds(v, levels)
	w.f64(lo)
	w.f64(step)
	for _, x := range v {
		q := quantLevel(x, lo, step, levels)
		if levels == int8Levels {
			w.u8(byte(q))
		} else {
			refPutU16(w, uint16(q))
		}
	}
}

func refPutFloats(w *wireBuf, c Codec, v []float64) {
	for _, x := range v {
		if c == CodecFloat32 {
			w.u32(math.Float32bits(float32(x)))
		} else {
			w.f64(x)
		}
	}
}

func refVecDown(w *wireBuf, c Codec, v []float64) {
	w.u32(uint32(len(v)))
	switch c {
	case CodecFloat64, CodecFloat32:
		refPutFloats(w, c, v)
	default:
		refPutLevels(w, v, c)
	}
}

func refVecUp(w *wireBuf, c Codec, v, ref []float64, topK int) {
	w.u32(uint32(len(v)))
	if c == CodecFloat64 || c == CodecFloat32 {
		refPutFloats(w, c, v)
		return
	}
	delta := make([]float64, len(v))
	for i := range v {
		delta[i] = v[i] - ref[i]
	}
	if c != CodecTopK {
		refPutLevels(w, delta, c)
		return
	}
	k := clampTopK(topK, len(v))
	w.u32(uint32(k))
	if k == 0 {
		w.f64(0)
		w.f64(0)
		return
	}
	kept := topKSortRef(delta, k)
	vals := make([]float64, k)
	for i, j := range kept {
		vals[i] = delta[j]
	}
	lo, step := quantBounds(vals, int8Levels)
	w.f64(lo)
	w.f64(step)
	for _, j := range kept {
		w.u32(uint32(j))
	}
	for _, x := range vals {
		w.u8(byte(quantLevel(x, lo, step, int8Levels)))
	}
}

// refGetDense decodes a dense body of dim elements; the int codecs add
// ref[i] to each dequantized level when ref is non-nil.
func refGetDense(c *wireCursor, codec Codec, dim int, ref []float64) []float64 {
	dst := make([]float64, dim)
	switch codec {
	case CodecFloat64:
		for i := range dst {
			dst[i] = c.f64("ref f64")
		}
	case CodecFloat32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(c.u32("ref f32")))
		}
	default:
		lo, step := c.f64("ref lo"), c.f64("ref step")
		levels, _ := codecLevels(codec)
		for i := range dst {
			var q int
			if levels == int8Levels {
				q = int(c.u8("ref i8"))
			} else {
				q = int(refGetU16(c))
			}
			if ref != nil {
				dst[i] = ref[i] + dequantLevel(q, lo, step)
			} else {
				dst[i] = dequantLevel(q, lo, step)
			}
		}
	}
	return dst
}

func refGetVecDown(c *wireCursor, codec Codec) []float64 {
	return refGetDense(c, codec, int(c.u32("ref dim")), nil)
}

func refGetVecUp(c *wireCursor, codec Codec, ref []float64) []float64 {
	dim := int(c.u32("ref dim"))
	if codec != CodecTopK {
		return refGetDense(c, codec, dim, ref)
	}
	k := int(c.u32("ref k"))
	lo, step := c.f64("ref lo"), c.f64("ref step")
	idx := make([]int, k)
	for i := range idx {
		idx[i] = int(c.u32("ref index"))
	}
	dst := append([]float64(nil), ref...)
	for _, j := range idx {
		dst[j] += dequantLevel(int(c.u8("ref value")), lo, step)
	}
	return dst
}

// codecRefVec is a test vector for codec at dim: Gaussian values with
// exact ties (zeros) mixed in, and for the float codecs the IEEE-754 edge
// cases — NaN, ±Inf, −0, a subnormal, a float32 overflow.
func codecRefVec(codec Codec, seed int64, dim int) []float64 {
	v := testVec(seed, dim)
	for i := 0; i < dim; i += 7 {
		v[i] = 0
	}
	if codec == CodecFloat64 || codec == CodecFloat32 {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-40}
		for i := 0; i < dim && i < len(special); i++ {
			v[dim-1-i] = special[i]
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d is %#x, reference %#x (lengths %d, %d)", what, i, got[i], want[i], len(got), len(want))
		}
	}
	t.Fatalf("%s: %d bytes, reference %d", what, len(got), len(want))
}

// decodeBoth runs a bulk and a reference decoder over the same body and
// checks that both consume it exactly.
func decodeBoth(t *testing.T, what string, body []byte,
	bulk func(*wireCursor) ([]float64, error), ref func(*wireCursor) []float64) {
	t.Helper()
	bc, rc := wireCursor{b: body}, wireCursor{b: body}
	got, err := bulk(&bc)
	if err == nil {
		err = bc.done()
	}
	if err != nil {
		t.Fatalf("%s: bulk decode: %v", what, err)
	}
	want := ref(&rc)
	if err := rc.done(); err != nil {
		t.Fatalf("%s: reference decode: %v", what, err)
	}
	sameBits(t, what, got, want)
}

// TestBulkCodecsMatchPerElementReference: for every codec, both directions
// and the PartialSum sum, at dims {0, 1, 3, 4, 7850}, the bulk encoders
// write the reference's bytes and the bulk decoders read the reference's
// bits — on encoder output and on arbitrary well-sized bodies alike.
func TestBulkCodecsMatchPerElementReference(t *testing.T) {
	rng := randx.New(101)
	for _, codec := range allCodecs {
		for _, dim := range refDims {
			name := func(dir string) string { return codec.String() + " " + dir + " dim " + strconv.Itoa(dim) }
			anchor := codecRefVec(codec, int64(dim)+1, dim)

			var bulk, ref wireBuf
			marshalVecDown(&bulk, codec, anchor)
			refVecDown(&ref, codec, anchor)
			sameBytes(t, name("downlink encode"), bulk.b, ref.b)
			down := func(c *wireCursor) ([]float64, error) { return unmarshalVecDown(c, codec, nil) }
			refDown := func(c *wireCursor) []float64 { return refGetVecDown(c, codec) }
			decodeBoth(t, name("downlink decode"), bulk.b, down, refDown)
			decodeBoth(t, name("downlink decode of random body"), randomDenseBody(rng, codec, dim), down, refDown)

			refAnchor := codecReference(codec, anchor, nil)
			local := codecRefVec(codec, int64(dim)+2, dim)
			if codec != CodecFloat64 && codec != CodecFloat32 {
				for i := range local {
					local[i] = refAnchor[i] + 0.1*local[i]
				}
			}
			for _, topK := range []int{1, TopKFor(0.05, dim), dim} {
				bulk.b, ref.b = bulk.b[:0], ref.b[:0]
				marshalVecUp(&bulk, codec, local, refAnchor, new(replyScratch), topK)
				refVecUp(&ref, codec, local, refAnchor, topK)
				sameBytes(t, name("uplink encode"), bulk.b, ref.b)
				up := func(c *wireCursor) ([]float64, error) { return unmarshalVecUp(c, codec, nil, refAnchor) }
				refUp := func(c *wireCursor) []float64 { return refGetVecUp(c, codec, refAnchor) }
				decodeBoth(t, name("uplink decode"), bulk.b, up, refUp)
				var body []byte
				if codec == CodecTopK {
					body = randomTopKBody(rng, dim, clampTopK(topK, dim))
				} else {
					body = randomDenseBody(rng, codec, dim)
				}
				decodeBoth(t, name("uplink decode of random body"), body, up, refUp)
			}
		}
	}
	for _, dim := range refDims {
		sum := codecRefVec(CodecFloat64, int64(dim)+3, dim)
		frame := marshalPartialSum(nil, &PartialSum{ShardID: 1, Round: 2, Devices: 3, Weight: 4, Sum: sum})
		var ref wireBuf
		refPutFloats(&ref, CodecFloat64, sum)
		sameBytes(t, "partial sum encode dim "+strconv.Itoa(dim), frame[len(frame)-8*dim:], ref.b)
		var ps PartialSum
		if err := unmarshalPartialSum(frame[frameHeaderSize:], &ps); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "partial sum decode dim "+strconv.Itoa(dim), ps.Sum, sum)
	}
}

// randomDenseBody is a dense vector body of codec at dim — dim prefix, then
// arbitrary bytes (finite lo/step for the int codecs).
func randomDenseBody(rng *rand.Rand, codec Codec, dim int) []byte {
	w := wireBuf{}
	w.u32(uint32(dim))
	n := vecDownBodySize(codec, dim)
	if codec != CodecFloat64 && codec != CodecFloat32 {
		w.f64(rng.NormFloat64())
		w.f64(rng.Float64() / 100)
		n -= 16
	}
	for i := 0; i < n; i++ {
		w.u8(byte(rng.Intn(256)))
	}
	return w.b
}

// randomTopKBody is an uplink topk body with k in-range indices, repeats
// allowed (the decoder applies them in wire order), and arbitrary levels.
func randomTopKBody(rng *rand.Rand, dim, k int) []byte {
	w := wireBuf{}
	w.u32(uint32(dim))
	w.u32(uint32(k))
	w.f64(rng.NormFloat64())
	w.f64(rng.Float64() / 100)
	for i := 0; i < k; i++ {
		w.u32(uint32(rng.Intn(dim)))
	}
	for i := 0; i < k; i++ {
		w.u8(byte(rng.Intn(256)))
	}
	return w.b
}

// TestBulkDecodersRejectMalformedBodies: on every codec and dim, a request
// or reply whose vector body is truncated, oversized (trailing bytes), or
// announces one element more than it carries is rejected as a framing
// error, as is a topk index at or past dim.
func TestBulkDecodersRejectMalformedBodies(t *testing.T) {
	frameErr := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted", what)
		}
		if !strings.HasPrefix(err.Error(), "transport: frame:") {
			t.Fatalf("%s: %v is not a framing error", what, err)
		}
	}
	for _, codec := range allCodecs {
		for _, dim := range refDims {
			name := codec.String() + " dim " + strconv.Itoa(dim)
			anchor := testVec(int64(dim)+5, dim)
			ref := codecReference(codec, anchor, nil)
			topK := clampTopK(3, dim)
			req := marshalRequest(nil, &RoundRequest{Round: 1, Codec: codec, Anchor: anchor, Local: wireLocal, TopK: topK})[frameHeaderSize:]
			rep := marshalReply(nil, &RoundReply{ClientID: 1, Round: 1, Codec: codec, Local: testVec(int64(dim)+6, dim)},
				ref, new(replyScratch), topK)[frameHeaderSize:]
			decReq := func(p []byte) error { var r RoundRequest; return unmarshalRequest(p, &r) }
			decRep := func(p []byte) error { var r RoundReply; return unmarshalReply(p, &r, ref) }
			for _, m := range []struct {
				dir     string
				payload []byte
				decode  func([]byte) error
				body    int
			}{
				{"request", req, decReq, vecDownBodySize(codec, dim)},
				{"reply", rep, decRep, vecUpBodySize(codec, dim, topK)},
			} {
				if err := m.decode(m.payload); err != nil {
					t.Fatalf("%s %s: well-formed payload rejected: %v", name, m.dir, err)
				}
				for _, cut := range []int{1, 8, m.body / 2, m.body} {
					if cut < 1 || cut > m.body {
						continue
					}
					frameErr(t, name+" "+m.dir+" short by "+strconv.Itoa(cut), m.decode(m.payload[:len(m.payload)-cut]))
				}
				over := append(append([]byte(nil), m.payload...), 0)
				frameErr(t, name+" "+m.dir+" with a trailing byte", m.decode(over))
				lying := append([]byte(nil), m.payload...)
				dimOff := len(lying) - m.body - 4
				lying[dimOff] = byte(dim + 1)
				lying[dimOff+1] = byte((dim + 1) >> 8)
				frameErr(t, name+" "+m.dir+" announcing dim+1", m.decode(lying))
			}
			if codec != CodecTopK || dim == 0 {
				continue
			}
			// Uplink topk body: dim k lo step, then k u32 indices.
			idxOff := len(rep) - vecUpBodySize(codec, dim, topK) + 4 + 16
			for _, at := range []int{0, topK - 1} {
				for _, j := range []uint32{uint32(dim), math.MaxUint32} {
					bad := append([]byte(nil), rep...)
					off := idxOff + 4*at
					bad[off], bad[off+1], bad[off+2], bad[off+3] = byte(j), byte(j>>8), byte(j>>16), byte(j>>24)
					frameErr(t, name+" topk index "+strconv.Itoa(int(j%(1<<31)))+" at "+strconv.Itoa(at), decRep(bad))
				}
			}
		}
	}
}
