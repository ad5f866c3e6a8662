package transport

// Exact wire-size arithmetic for the framed protocol. Because every frame
// layout is fixed-width (spans and error strings aside), per-round traffic
// is a closed-form function of (codec, dim, topK) — these helpers are the
// single source of truth for it, used by the RoundStats accounting tests,
// the fedsim simulated-bandwidth sink and the compression example.

// vecDownBodySize returns the byte count of a downlink vector body after
// its dim prefix (also the uplink body size for the non-sparse codecs,
// whose delta layout is identical).
func vecDownBodySize(c Codec, dim int) int {
	switch c {
	case CodecFloat32:
		return 4 * dim
	case CodecInt16:
		return 16 + 2*dim
	case CodecInt8, CodecTopK:
		return 16 + dim
	}
	return 8 * dim
}

// vecUpBodySize returns the byte count of an uplink vector body after its
// dim prefix. topK is only consulted under CodecTopK.
func vecUpBodySize(c Codec, dim, topK int) int {
	if c == CodecTopK {
		k := clampTopK(topK, dim)
		return 4 + 16 + 5*k
	}
	return vecDownBodySize(c, dim)
}

// HelloWireSize is the framed size in bytes, header included, of a Hello
// without the lease extension.
const HelloWireSize = frameHeaderSize + 1 + 1 + 4 + 4 + 4 + 8

// requestFixedSize is the non-Done request fixed part after the header:
// round+flags+codec+topK, the local config, and the vector dim prefix.
const requestFixedSize = 4 + 1 + 1 + 4 + (2*8 + 2*4 + 2) + 4

// RequestWireSize returns the exact framed size in bytes (header included)
// of a non-Done RoundRequest broadcasting a dim-dimensional anchor. traced
// adds the 16-byte trace context.
func RequestWireSize(c Codec, dim int, traced bool) int {
	n := frameHeaderSize + requestFixedSize + vecDownBodySize(c, dim)
	if traced {
		n += 16
	}
	return n
}

// ActivateFieldSize is the extra request bytes when the round carries a
// probabilistic-activation probability (reqFlagActivate): one f64.
const ActivateFieldSize = 8

// DoneWireSize is the framed size of a Done request.
const DoneWireSize = frameHeaderSize + 4 + 1 + 1 + 4

// ReplyWireSize returns the exact framed size in bytes (header included) of
// a successful, span-free RoundReply carrying a dim-dimensional local model.
// topK is only consulted under CodecTopK. (Error replies and trace spans
// use uvarints, so their sizes are content-dependent.)
func ReplyWireSize(c Codec, dim, topK int) int {
	// clientID+round+flags+codec+gradEvals+solveSeconds+spanCount(0)+dim.
	return frameHeaderSize + 4 + 4 + 1 + 1 + 8 + 8 + 1 + 4 + vecUpBodySize(c, dim, topK)
}

// RoundWireSize returns the exact framed bytes a worker exchange moves in
// one round (request down + reply up), excluding trace spans.
func RoundWireSize(c Codec, dim, topK int, traced bool) int {
	return RequestWireSize(c, dim, traced) + ReplyWireSize(c, dim, topK)
}

// CompressionRatio returns the exact-mode (CodecFloat64) bytes divided by
// codec c's bytes for one round at the given dim/topK.
func CompressionRatio(c Codec, dim, topK int) float64 {
	return float64(RoundWireSize(CodecFloat64, dim, 0, false)) / float64(RoundWireSize(c, dim, topK, false))
}
