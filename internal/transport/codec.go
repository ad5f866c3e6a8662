package transport

import (
	"fmt"
	"math"
	"net"
	"sync/atomic"
)

// Codec selects the wire representation of model vectors — the classic FL
// communication-efficiency ladder (cf. Konečný et al., "Strategies for
// Improving Communication Efficiency"): exact floats, half-precision-style
// float32, range-quantized integers, and top-k delta sparsification. The
// coordinator picks the codec (SetCodec) and broadcasts it in every round
// request; workers must reply in the same codec and the coordinator
// rejects — never silently dequantizes — a reply encoded otherwise.
//
// Under the int codecs the downlink quantizes the anchor itself, and the
// uplink carries the quantized DELTA of the local model against the
// dequantized anchor both peers share (see codecReference); CodecTopK
// additionally keeps only the k largest-|·| delta coordinates. Deltas
// concentrate the update's mass in a narrow range, so range quantization
// loses far less than it would on raw models.
type Codec int

const (
	// CodecFloat64 sends full-precision vectors (the default). It is the
	// exact mode: framed float64 round-trips bit-identically, so the
	// chaos/conformance suites hold under it.
	CodecFloat64 Codec = iota
	// CodecFloat32 rounds vectors to float32 on the wire (~1e-7 relative
	// error, half the bytes).
	CodecFloat32
	// CodecInt16 range-quantizes to 16-bit levels (¼ the bytes).
	CodecInt16
	// CodecInt8 range-quantizes to 8-bit levels (⅛ the bytes).
	CodecInt8
	// CodecTopK ("topk-delta") sends the int8-quantized top-k coordinates
	// of the update delta; the anchor broadcast is int8-quantized. With
	// k ≪ dim this is the 10–15× mode (the dense int8 downlink caps it
	// below 16×).
	CodecTopK

	numCodecs = iota
)

// Quantization level counts: levels 0..max map [lo, hi] linearly.
const (
	int8Levels  = 1<<8 - 1
	int16Levels = 1<<16 - 1
)

// Valid reports whether c is a known codec.
func (c Codec) Valid() bool { return c >= 0 && c < numCodecs }

// String returns the flag-friendly codec name.
func (c Codec) String() string {
	switch c {
	case CodecFloat64:
		return "float64"
	case CodecFloat32:
		return "float32"
	case CodecInt16:
		return "int16"
	case CodecInt8:
		return "int8"
	case CodecTopK:
		return "topk-delta"
	}
	return fmt.Sprintf("codec(%d)", int(c))
}

// ParseCodec parses a -codec flag value.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "float64", "f64":
		return CodecFloat64, nil
	case "float32", "f32":
		return CodecFloat32, nil
	case "int16", "i16":
		return CodecInt16, nil
	case "int8", "i8":
		return CodecInt8, nil
	case "topk-delta", "topk":
		return CodecTopK, nil
	}
	return 0, fmt.Errorf("transport: unknown codec %q (want float64|float32|int16|int8|topk-delta)", s)
}

// DefaultTopKFraction is the kept fraction of delta coordinates under
// CodecTopK when none is configured.
const DefaultTopKFraction = 0.05

// TopKFor returns the kept coordinate count for a fraction and dimension:
// round(frac·dim) clamped to [1, dim] (0 for an empty vector). A
// non-positive fraction falls back to DefaultTopKFraction.
func TopKFor(frac float64, dim int) int {
	if frac <= 0 {
		frac = DefaultTopKFraction
	}
	return clampTopK(int(math.Round(frac*float64(dim))), dim)
}

// clampTopK bounds a requested k to [1, dim] (0 only when dim is 0).
func clampTopK(k, dim int) int {
	if dim == 0 {
		return 0
	}
	if k < 1 {
		return 1
	}
	if k > dim {
		return dim
	}
	return k
}

// quantBounds returns the range-quantization parameters for v: the lower
// bound and the level step (hi−lo)/levels. A constant vector (or an empty
// one) yields step 0 — every level decodes to lo.
func quantBounds(v []float64, levels int) (lo, step float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, (hi - lo) / float64(levels)
}

// quantLevel maps x to its nearest level in [0, levels]. Both peers run
// this exact arithmetic, so the dequantized vector is identical on each.
func quantLevel(x, lo, step float64, levels int) int {
	if step == 0 {
		return 0
	}
	q := int(math.Round((x - lo) / step))
	if q < 0 {
		return 0
	}
	if q > levels {
		return levels
	}
	return q
}

// dequantLevel inverts quantLevel up to the step/2 rounding error.
func dequantLevel(q int, lo, step float64) float64 { return lo + float64(q)*step }

// codecReference computes the reference anchor a codec's delta uplink is
// taken against: the anchor exactly as the worker will decode it from the
// downlink. For the exact codecs that is the anchor itself; for the lossy
// codecs it is the quantize→dequantize round trip, computed with the same
// arithmetic as the marshaller so coordinator and worker agree bit-for-bit.
// dst is reused when the codec needs a materialized copy.
func codecReference(c Codec, anchor, dst []float64) []float64 {
	switch c {
	case CodecFloat32:
		dst = ensureF64(dst, len(anchor))
		for i, x := range anchor {
			dst[i] = float64(float32(x))
		}
		return dst
	case CodecInt16:
		return dequantReference(anchor, dst, int16Levels)
	case CodecInt8, CodecTopK:
		return dequantReference(anchor, dst, int8Levels)
	}
	return anchor
}

func dequantReference(anchor, dst []float64, levels int) []float64 {
	dst = ensureF64(dst, len(anchor))
	lo, step := quantBounds(anchor, levels)
	for i, x := range anchor {
		dst[i] = dequantLevel(quantLevel(x, lo, step, levels), lo, step)
	}
	return dst
}

// countingConn wraps a net.Conn with atomic byte counters, giving the
// coordinator exact per-connection bandwidth accounting.
type countingConn struct {
	net.Conn
	sent, received *atomic.Int64
}

func newCountingConn(c net.Conn) *countingConn {
	return &countingConn{Conn: c, sent: new(atomic.Int64), received: new(atomic.Int64)}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// BytesSent returns the bytes written to this connection so far.
func (c *countingConn) BytesSent() int64 { return c.sent.Load() }

// BytesReceived returns the bytes read from this connection so far.
func (c *countingConn) BytesReceived() int64 { return c.received.Load() }
