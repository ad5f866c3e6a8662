package transport

// The framed binary wire protocol — the only wire format. The round path's
// messages have a fixed layout and their payloads are long float64 vectors,
// so a hand-rolled framing moves exactly 8 bytes per exact-mode element
// with no reflection, makes per-round traffic a closed form (wiresize.go),
// and lets the compressed codecs cut it by 2–15× (see codec.go).
//
// Every frame is
//
//	magic(0xFE) | type(u8) | payloadLen(u32 LE) | payload
//
// with five frame types: Hello (1), RoundRequest (2), RoundReply (3),
// the aggregation tree's PartialSum (5) and the jobs control plane's
// LeaseReject (6). Type 4 is retired, never to be reused: peers built for
// the old two-hello handshake opened with it. All integers are
// little-endian; floats are IEEE-754 bits (float64 vectors round-trip
// bit-exactly, keeping the conformance suites bit-identical in
// CodecFloat64). A stream whose first byte is not the magic is not this
// protocol: frameReader.next rejects it as "bad magic" and handshake()
// closes the connection.
//
// Payload layouts (all fields fixed-width unless marked uvarint):
//
//	Hello        version(u8) role(u8) clientID(i32)
//	             loDevice(i32) numDevices(i32) numSamples(i64)
//	                                            -- role 0: a worker, replies
//	                                               RoundReply, numDevices 1;
//	                                               role 1: a tree node,
//	                                               replies PartialSum
//	             -- lease extension, present only when a lease is held:
//	             epoch(i64) jobLen(uvarint) jobID
//	LeaseReject  version(u8) epoch(i64) jobLen(uvarint) jobID
//	RoundRequest round(u32) flags(u8) codec(u8) topK(u32)
//	             -- omitted when flags&reqFlagDone:
//	             eta(f64) mu(f64) tau(u32) batch(u32)
//	             estimator(u8) return(u8)
//	             traceID(u64) spanID(u64)      -- only when flags&reqFlagTrace
//	             activateProb(f64)             -- only when flags&reqFlagActivate
//	             anchor vector (downlink layout, see below)
//	RoundReply   clientID(i32) round(u32) flags(u8) codec(u8)
//	             gradEvals(i64) solveSeconds(f64)
//	             errLen(uvarint) err            -- only when flags&repFlagErr,
//	                                               then nothing follows
//	             spanCount(uvarint) spans       -- each: id(uvarint)
//	                                               parent(uvarint)
//	                                               nameLen(uvarint) name
//	                                               start(f64) end(f64)
//	             local vector (uplink layout)
//	PartialSum   shardID(i32) round(u32) flags(u8)
//	             errLen(uvarint) err            -- only when flags&repFlagErr,
//	                                               then nothing follows
//	             devices(u32) gradEvals(i64) solveSeconds(f64)
//	             weight(f64)
//	             spanCount(uvarint) spans       -- same layout as RoundReply
//	             dim(u32) 8·dim                 -- Σ D_n·w_n, always float64:
//	                                               the tree streams exact
//	                                               partial sums so the fold
//	                                               stays bit-identical to flat
//
// Vector layouts are codec-dependent; dim(u32) always comes first.
// Downlink (the anchor, quantized absolutely):
//
//	float64  8·dim raw bits
//	float32  4·dim
//	int16    lo(f64) step(f64) 2·dim
//	int8     lo(f64) step(f64) 1·dim     (topk-delta broadcasts int8 too)
//
// Uplink (the local model; int and topk codecs carry the DELTA against
// the request's dequantized anchor — see codecReference):
//
//	float64  8·dim raw bits
//	float32  4·dim
//	int16    lo(f64) step(f64) 2·dim
//	int8     lo(f64) step(f64) 1·dim
//	topk     k(u32) lo(f64) step(f64) 4·k indices 1·k values
import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

const (
	frameMagic   = 0xFE
	frameVersion = 4 // leads Hello and LeaseReject; 4 is the PartialSum without failed and straggler counts

	msgHello        = 1
	msgRoundRequest = 2
	msgRoundReply   = 3
	msgPartialSum   = 5
	msgLeaseReject  = 6

	frameHeaderSize = 6
	// maxFramePayload bounds decoder allocation against a corrupt or
	// hostile length prefix (a 64 MB frame is a ~8M-parameter float64
	// vector — far above any model this runtime moves).
	maxFramePayload = 64 << 20
)

// RoundRequest flags.
const (
	reqFlagDone     = 1 << 0
	reqFlagTrace    = 1 << 1
	reqFlagActivate = 1 << 2
)

// RoundReply flags.
const repFlagErr = 1 << 0

// errFrame marks wire-level framing violations (bad magic, short payload,
// unknown type). They are network-class: the stream cannot be trusted
// after one, so the connection is torn down.
func errFrame(format string, args ...interface{}) error {
	return fmt.Errorf("transport: frame: "+format, args...)
}

// wireBuf is an append-only little-endian encoder over a reusable byte
// slice. All methods are branch-free appends; the caller owns the slice.
type wireBuf struct{ b []byte }

func (w *wireBuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wireBuf) u32(v uint32) { w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (w *wireBuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *wireBuf) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *wireBuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wireBuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wireBuf) uvarint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}
func (w *wireBuf) bytes(p []byte) { w.b = append(w.b, p...) }

// grow appends n bytes and returns them for the caller to fill: vector
// bodies are written in one loop over this slice, not one append per
// element.
func (w *wireBuf) grow(n int) []byte {
	off := len(w.b)
	w.b = slices.Grow(w.b, n)[:off+n]
	return w.b[off:]
}

// beginFrame appends the frame header with a zero length to patch later.
func (w *wireBuf) beginFrame(typ byte) int {
	w.u8(frameMagic)
	w.u8(typ)
	w.u32(0)
	return len(w.b)
}

// endFrame patches the payload length of the frame opened at body offset.
func (w *wireBuf) endFrame(body int) {
	n := uint32(len(w.b) - body)
	w.b[body-4] = byte(n)
	w.b[body-3] = byte(n >> 8)
	w.b[body-2] = byte(n >> 16)
	w.b[body-1] = byte(n >> 24)
}

// wireCursor decodes a frame payload with bounds checking. The first
// failure latches err and every later read returns zero, so decode code
// reads straight through and checks err once.
type wireCursor struct {
	b   []byte
	off int
	err error
}

func (c *wireCursor) fail(what string) {
	if c.err == nil {
		c.err = errFrame("truncated or malformed %s at offset %d", what, c.off)
	}
}

func (c *wireCursor) take(n int, what string) []byte {
	if c.err != nil || n < 0 || n > len(c.b)-c.off { // c.off+n could overflow
		c.fail(what)
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *wireCursor) u8(what string) byte {
	p := c.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

func (c *wireCursor) u32(what string) uint32 {
	p := c.take(4, what)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func (c *wireCursor) u64(what string) uint64 {
	p := c.take(8, what)
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func (c *wireCursor) i32(what string) int32   { return int32(c.u32(what)) }
func (c *wireCursor) i64(what string) int64   { return int64(c.u64(what)) }
func (c *wireCursor) f64(what string) float64 { return math.Float64frombits(c.u64(what)) }
func (c *wireCursor) uvarint(what string) uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b := c.u8(what)
		if c.err != nil {
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	c.fail(what)
	return 0
}

// done reports whether the payload was consumed exactly; trailing garbage
// is a framing violation (it would silently desynchronize a lesser parser).
func (c *wireCursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return errFrame("%d trailing bytes after message", len(c.b)-c.off)
	}
	return nil
}

// ensureF64 returns dst resized to n, reusing its backing array when
// possible (per-connection decode buffers are steady-state alloc-free).
func ensureF64(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// ---------------------------------------------------------------------------
// Vector bodies
//
// A vector body is length-checked once, up front (vecDownBodySize), and then
// moved in one loop over the payload slice — never one cursor call per
// element. The get helpers fill all of dst from p; the put helpers fill p
// from all of v; both assume the caller sized p for the layout.

// putF64s and getF64s carry the exact codec and the tree's partial sums,
// the hot path, so they move four elements per bounds check.
func putF64s(p []byte, v []float64) {
	p = p[:8*len(v)]
	for len(v) >= 4 {
		q := p[:32]
		binary.LittleEndian.PutUint64(q[0:], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(q[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(q[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(q[24:], math.Float64bits(v[3]))
		p, v = p[32:], v[4:]
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
	}
}

func putF32s(p []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(float32(x)))
	}
}

// putLevels range-quantizes v, one level per element: a byte under
// int8Levels, a little-endian u16 under int16Levels.
func putLevels(p []byte, v []float64, lo, step float64, levels int) {
	if levels == int8Levels {
		for i, x := range v {
			p[i] = byte(quantLevel(x, lo, step, levels))
		}
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint16(p[2*i:], uint16(quantLevel(x, lo, step, levels)))
	}
}

func getF64s(dst []float64, p []byte) {
	p = p[:8*len(dst)]
	for len(dst) >= 4 {
		q := p[:32]
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(q[0:]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(q[8:]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(q[16:]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(q[24:]))
		p, dst = p[32:], dst[4:]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

func getF32s(dst []float64, p []byte) {
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
	}
}

// getLevels dequantizes one level per element of dst (layout as putLevels).
// A non-nil ref makes it the uplink delta decode: dst[i] = ref[i] + level.
func getLevels(dst []float64, p []byte, lo, step float64, levels int, ref []float64) {
	switch {
	case levels == int8Levels && ref == nil:
		for i := range dst {
			dst[i] = dequantLevel(int(p[i]), lo, step)
		}
	case levels == int8Levels:
		for i := range dst {
			dst[i] = ref[i] + dequantLevel(int(p[i]), lo, step)
		}
	case ref == nil:
		for i := range dst {
			dst[i] = dequantLevel(int(binary.LittleEndian.Uint16(p[2*i:])), lo, step)
		}
	default:
		for i := range dst {
			dst[i] = ref[i] + dequantLevel(int(binary.LittleEndian.Uint16(p[2*i:])), lo, step)
		}
	}
}

// codecLevels returns an int codec's quantization level count and the
// bytes one level takes on the wire (topk quantizes int8).
func codecLevels(c Codec) (levels, width int) {
	if c == CodecInt16 {
		return int16Levels, 2
	}
	return int8Levels, 1
}

// ---------------------------------------------------------------------------
// Marshalling

// Hello roles (the role byte).
const (
	roleReply   = 0
	rolePartial = 1
)

// marshalHello appends a Hello frame to dst.
func marshalHello(dst []byte, h *Hello) []byte {
	w := wireBuf{b: dst}
	body := w.beginFrame(msgHello)
	w.u8(frameVersion)
	role := byte(roleReply)
	if h.Partial {
		role = rolePartial
	}
	w.u8(role)
	w.i32(int32(h.ClientID))
	w.i32(int32(h.LoDevice))
	w.i32(int32(h.NumDevices))
	w.i64(h.NumSamples)
	// Lease extension: written only when a lease is held, so an unleased
	// Hello has a fixed size (HelloWireSize).
	if h.Epoch != 0 || h.JobID != "" {
		w.i64(h.Epoch)
		w.uvarint(uint64(len(h.JobID)))
		w.bytes([]byte(h.JobID))
	}
	w.endFrame(body)
	return w.b
}

// marshalLeaseReject appends a LeaseReject frame to dst — the coordinator's
// answer to a Hello whose lease is stale.
func marshalLeaseReject(dst []byte, lr *LeaseReject) []byte {
	w := wireBuf{b: dst}
	body := w.beginFrame(msgLeaseReject)
	w.u8(frameVersion)
	w.i64(lr.Epoch)
	w.uvarint(uint64(len(lr.JobID)))
	w.bytes([]byte(lr.JobID))
	w.endFrame(body)
	return w.b
}

// marshalRequest appends a RoundRequest frame to dst. req.Anchor must hold
// the full-precision anchor (the marshaller quantizes per req.Codec); a
// Done request carries no config and no anchor.
func marshalRequest(dst []byte, req *RoundRequest) []byte {
	w := wireBuf{b: dst}
	body := w.beginFrame(msgRoundRequest)
	var flags byte
	if req.Done {
		flags |= reqFlagDone
	}
	if req.TraceID != 0 {
		flags |= reqFlagTrace
	}
	if req.ActivateProb > 0 {
		flags |= reqFlagActivate
	}
	w.u32(uint32(req.Round))
	w.u8(flags)
	w.u8(byte(req.Codec))
	w.u32(uint32(req.TopK))
	if !req.Done {
		w.f64(req.Local.Eta)
		w.f64(req.Local.Mu)
		w.u32(uint32(req.Local.Tau))
		w.u32(uint32(req.Local.Batch))
		w.u8(byte(req.Local.Estimator))
		w.u8(byte(req.Local.Return))
		if req.TraceID != 0 {
			w.u64(req.TraceID)
			w.u64(req.SpanID)
		}
		if req.ActivateProb > 0 {
			w.f64(req.ActivateProb)
		}
		marshalVecDown(&w, req.Codec, req.Anchor)
	}
	w.endFrame(body)
	return w.b
}

// marshalVecDown encodes the broadcast anchor: absolute values under every
// codec (int codecs range-quantize the vector itself — both peers then
// share the identical dequantized anchor, the delta reference).
func marshalVecDown(w *wireBuf, c Codec, v []float64) {
	w.u32(uint32(len(v)))
	switch c {
	case CodecFloat32:
		putF32s(w.grow(4*len(v)), v)
	case CodecInt16, CodecInt8, CodecTopK:
		putQuantized(w, v, c)
	default: // CodecFloat64
		putF64s(w.grow(8*len(v)), v)
	}
}

// putQuantized writes a range-quantized body under int codec c:
// lo(f64) step(f64) levels.
func putQuantized(w *wireBuf, v []float64, c Codec) {
	levels, width := codecLevels(c)
	lo, step := quantBounds(v, levels)
	w.f64(lo)
	w.f64(step)
	putLevels(w.grow(width*len(v)), v, lo, step, levels)
}

// marshalReply appends a RoundReply frame to dst. rep.Local must hold the
// full-precision local model; ref is the dequantized anchor the delta
// codecs encode against (it must equal what codecReference produced on the
// coordinator — on a worker it is simply the decoded request anchor).
// sc is the encoder's reusable memory (the delta and the top-k selection).
func marshalReply(dst []byte, rep *RoundReply, ref []float64, sc *replyScratch, topK int) []byte {
	w := wireBuf{b: dst}
	body := w.beginFrame(msgRoundReply)
	var flags byte
	if rep.Err != "" {
		flags |= repFlagErr
	}
	w.i32(int32(rep.ClientID))
	w.u32(uint32(rep.Round))
	w.u8(flags)
	w.u8(byte(rep.Codec))
	w.i64(rep.GradEvals)
	w.f64(rep.SolveSeconds)
	if rep.Err != "" {
		w.uvarint(uint64(len(rep.Err)))
		w.bytes([]byte(rep.Err))
		w.endFrame(body)
		return w.b
	}
	marshalSpans(&w, rep.Spans)
	marshalVecUp(&w, rep.Codec, rep.Local, ref, sc, topK)
	w.endFrame(body)
	return w.b
}

// replyScratch is a reply encoder's reusable memory: the delta against the
// reference and the top-k selection permutation, both grown to the model
// size on first use so the steady-state encode allocates nothing.
type replyScratch struct {
	delta []float64
	idx   []int
}

// marshalSpans appends the shipped-span block shared by RoundReply and
// PartialSum: spanCount(uvarint) then each span's id/parent/name/start/end.
func marshalSpans(w *wireBuf, spans []trace.WireSpan) {
	w.uvarint(uint64(len(spans)))
	for _, s := range spans {
		w.uvarint(s.ID)
		w.uvarint(s.Parent)
		w.uvarint(uint64(len(s.Name)))
		w.bytes([]byte(s.Name))
		w.f64(s.Start)
		w.f64(s.End)
	}
}

// unmarshalSpans decodes a shipped-span block and returns the spans plus
// the EXCESS bytes the block occupied beyond the 1-byte empty spanCount
// that the closed-form frame sizes (ReplyWireSize, and the PartialSum size
// the tree tests compute) already account for. With tracing off the block
// is exactly one zero byte and the excess is 0; with tracing on the excess
// is what RoundStats.SpanBytes must carry so that BytesRecv − SpanBytes
// still matches the closed forms byte-exactly.
func unmarshalSpans(c *wireCursor) ([]trace.WireSpan, int, error) {
	mark := c.off
	count := c.uvarint("span count")
	if count == 0 {
		return nil, c.off - mark - 1, c.err
	}
	if count > uint64(len(c.b)) { // each span is well over one byte
		return nil, 0, errFrame("span count %d exceeds payload", count)
	}
	spans := make([]trace.WireSpan, count)
	for i := range spans {
		s := &spans[i]
		s.ID = c.uvarint("span id")
		s.Parent = c.uvarint("span parent")
		n := int(c.uvarint("span name length"))
		s.Name = string(c.take(n, "span name"))
		s.Start = c.f64("span start")
		s.End = c.f64("span end")
	}
	if c.err != nil {
		return nil, 0, c.err
	}
	return spans, c.off - mark - 1, nil
}

// marshalVecUp encodes the local model for the uplink: raw floats in the
// exact codecs, the range-quantized delta local−ref in the int codecs, and
// the int8-quantized top-k of that delta in CodecTopK.
func marshalVecUp(w *wireBuf, c Codec, v, ref []float64, sc *replyScratch, topK int) {
	w.u32(uint32(len(v)))
	switch c {
	case CodecFloat32:
		putF32s(w.grow(4*len(v)), v)
	case CodecInt16, CodecInt8:
		sc.delta = deltaInto(sc.delta, v, ref)
		putQuantized(w, sc.delta, c)
	case CodecTopK:
		sc.delta = deltaInto(sc.delta, v, ref)
		k := clampTopK(topK, len(v))
		w.u32(uint32(k))
		if k == 0 {
			w.f64(0)
			w.f64(0)
			break
		}
		sc.idx = selectTopK(sc.delta, k, sc.idx)
		kept := sc.idx[:k]
		// Compact the kept values to the front of the delta in place: kept
		// is ascending and distinct, so kept[i] ≥ i and every slot written
		// has already been read.
		vals := sc.delta[:k]
		for i, j := range kept {
			vals[i] = sc.delta[j]
		}
		lo, step := quantBounds(vals, int8Levels)
		w.f64(lo)
		w.f64(step)
		p := w.grow(5 * k)
		for i, j := range kept {
			binary.LittleEndian.PutUint32(p[4*i:], uint32(j))
		}
		putLevels(p[4*k:], vals, lo, step, int8Levels)
	default: // CodecFloat64
		putF64s(w.grow(8*len(v)), v)
	}
}

// marshalPartialSum appends a PartialSum frame to dst. ps.Sum must hold
// the shard's full-precision Σ D_n·w_n — partial sums always travel as raw
// float64 so the root's fold is bit-identical to a flat ShardedMean.
func marshalPartialSum(dst []byte, ps *PartialSum) []byte {
	w := wireBuf{b: dst}
	body := w.beginFrame(msgPartialSum)
	var flags byte
	if ps.Err != "" {
		flags |= repFlagErr
	}
	w.i32(int32(ps.ShardID))
	w.u32(uint32(ps.Round))
	w.u8(flags)
	if ps.Err != "" {
		w.uvarint(uint64(len(ps.Err)))
		w.bytes([]byte(ps.Err))
		w.endFrame(body)
		return w.b
	}
	w.u32(uint32(ps.Devices))
	w.i64(ps.GradEvals)
	w.f64(ps.SolveSeconds)
	w.f64(ps.Weight)
	marshalSpans(&w, ps.Spans)
	w.u32(uint32(len(ps.Sum)))
	putF64s(w.grow(8*len(ps.Sum)), ps.Sum)
	w.endFrame(body)
	return w.b
}

// deltaInto stores v−ref into scratch (grown as needed). A ref of the
// wrong length yields the raw vector — the decoder's dimension check
// rejects the exchange rather than silently corrupting it.
func deltaInto(scratch, v, ref []float64) []float64 {
	scratch = ensureF64(scratch, len(v))
	if len(ref) != len(v) {
		copy(scratch, v)
		return scratch
	}
	for i, x := range v {
		scratch[i] = x - ref[i]
	}
	return scratch
}

// ---------------------------------------------------------------------------
// Unmarshalling

// unmarshalHello decodes a Hello payload. The version is checked first, so
// a peer speaking an older handshake is told so instead of having its
// fields misread. The lease extension is length-gated: a payload that ends
// after numSamples carries no lease. A Hello that claims no devices, a
// negative device or sample count, or a worker speaking for more than one
// device is malformed: it would tile the fleet wrongly or hand the
// aggregation a negative weight.
func unmarshalHello(p []byte) (Hello, error) {
	c := wireCursor{b: p}
	if v := c.u8("hello version"); c.err == nil && v != frameVersion {
		return Hello{}, errFrame("unsupported protocol version %d", v)
	}
	role := c.u8("hello role")
	h := Hello{
		ClientID:   int(c.i32("hello client id")),
		LoDevice:   int(c.i32("hello lo device")),
		NumDevices: int(c.i32("hello device count")),
		NumSamples: c.i64("hello samples"),
		Partial:    role == rolePartial,
	}
	if c.err == nil && c.off < len(c.b) {
		h.Epoch = c.i64("hello lease epoch")
		n := int(c.uvarint("hello job id length"))
		h.JobID = string(c.take(n, "hello job id"))
	}
	if err := c.done(); err != nil {
		return Hello{}, err
	}
	switch {
	case role != roleReply && role != rolePartial:
		return Hello{}, errFrame("peer %d declares unknown role %d", h.ClientID, role)
	case h.NumDevices < 1 || h.LoDevice < 0 || (!h.Partial && h.NumDevices != 1):
		return Hello{}, errFrame("peer %d claims device range [%d,+%d)", h.ClientID, h.LoDevice, h.NumDevices)
	case h.NumSamples < 0:
		return Hello{}, errFrame("peer %d claims %d training samples", h.ClientID, h.NumSamples)
	}
	return h, nil
}

// unmarshalLeaseReject decodes a LeaseReject payload.
func unmarshalLeaseReject(p []byte) (LeaseReject, error) {
	c := wireCursor{b: p}
	v := c.u8("lease reject version")
	lr := LeaseReject{Epoch: c.i64("lease reject epoch")}
	n := int(c.uvarint("lease reject job id length"))
	lr.JobID = string(c.take(n, "lease reject job id"))
	if err := c.done(); err != nil {
		return LeaseReject{}, err
	}
	if v != frameVersion {
		return LeaseReject{}, errFrame("unsupported protocol version %d", v)
	}
	return lr, nil
}

// unmarshalPartialSum decodes a PartialSum payload into ps, overwriting
// every field; ps.Sum reuses its backing array.
func unmarshalPartialSum(p []byte, ps *PartialSum) error {
	c := wireCursor{b: p}
	ps.ShardID = int(c.i32("partial shard id"))
	ps.Round = int(c.u32("partial round"))
	flags := c.u8("partial flags")
	ps.Err = ""
	ps.Spans = nil
	ps.SpanBytes = 0
	if flags&repFlagErr != 0 {
		n := int(c.uvarint("error length"))
		ps.Err = string(c.take(n, "error text"))
		ps.Sum = ps.Sum[:0]
		ps.Devices = 0
		ps.GradEvals, ps.SolveSeconds, ps.Weight = 0, 0, 0
		return c.done()
	}
	ps.Devices = int(c.u32("partial devices"))
	ps.GradEvals = c.i64("partial grad evals")
	ps.SolveSeconds = c.f64("partial solve seconds")
	ps.Weight = c.f64("partial weight")
	var err error
	ps.Spans, ps.SpanBytes, err = unmarshalSpans(&c)
	if err != nil {
		return err
	}
	dim := int(c.u32("partial dim"))
	if c.err != nil {
		return c.err
	}
	if c.off+8*dim > len(c.b) {
		return errFrame("partial sum body short: dim %d needs %d bytes, have %d", dim, 8*dim, len(c.b)-c.off)
	}
	ps.Sum = ensureF64(ps.Sum, dim)
	getF64s(ps.Sum, c.take(8*dim, "partial sum"))
	return c.done()
}

// unmarshalRequest decodes a RoundRequest payload into req, overwriting
// every field (req is safely reusable across rounds). req.Anchor is filled
// with the DEQUANTIZED anchor — under the int codecs that is exactly the
// reference vector the reply's delta must be encoded against.
func unmarshalRequest(p []byte, req *RoundRequest) error {
	c := wireCursor{b: p}
	req.Round = int(c.u32("request round"))
	flags := c.u8("request flags")
	req.Codec = Codec(c.u8("request codec"))
	req.TopK = int(c.u32("request topk"))
	req.Done = flags&reqFlagDone != 0
	req.TraceID, req.SpanID = 0, 0
	req.ActivateProb = 0
	if req.Done {
		req.Local = optim.LocalConfig{}
		req.Anchor = req.Anchor[:0]
		return c.done()
	}
	if !req.Codec.Valid() {
		return errFrame("unknown codec %d", req.Codec)
	}
	req.Local = optim.LocalConfig{
		Eta:   c.f64("config eta"),
		Mu:    c.f64("config mu"),
		Tau:   int(c.u32("config tau")),
		Batch: int(c.u32("config batch")),
	}
	req.Local.Estimator = optim.Estimator(c.u8("config estimator"))
	req.Local.Return = optim.ReturnPolicy(c.u8("config return"))
	if err := req.Local.Validate(); err != nil && c.err == nil { // a short body reports its truncation below
		return errFrame("%v", err)
	}
	if flags&reqFlagTrace != 0 {
		req.TraceID = c.u64("trace id")
		req.SpanID = c.u64("span id")
	}
	if flags&reqFlagActivate != 0 {
		req.ActivateProb = c.f64("activate prob")
	}
	var err error
	req.Anchor, err = unmarshalVecDown(&c, req.Codec, req.Anchor)
	if err != nil {
		return err
	}
	return c.done()
}

// unmarshalVecDown decodes a downlink vector into dst (reused).
func unmarshalVecDown(c *wireCursor, codec Codec, dst []float64) ([]float64, error) {
	dim := int(c.u32("vector dim"))
	if c.err != nil {
		return dst, c.err
	}
	if need := vecDownBodySize(codec, dim); c.off+need > len(c.b) {
		return dst, errFrame("vector body short: dim %d needs %d bytes, have %d", dim, need, len(c.b)-c.off)
	}
	dst = ensureF64(dst, dim)
	getVec(c, codec, dst, nil)
	return dst, c.err
}

// getVec decodes a dense vector body of codec into all of dst; the int
// codecs add ref (the uplink delta reference; nil on the downlink). The
// caller has checked that the body fits.
func getVec(c *wireCursor, codec Codec, dst, ref []float64) {
	switch codec {
	case CodecFloat32:
		getF32s(dst, c.take(4*len(dst), "vector f32"))
	case CodecInt16, CodecInt8, CodecTopK:
		lo, step := c.f64("quant lo"), c.f64("quant step")
		levels, width := codecLevels(codec)
		getLevels(dst, c.take(width*len(dst), "vector levels"), lo, step, levels, ref)
	default:
		getF64s(dst, c.take(8*len(dst), "vector f64"))
	}
}

// unmarshalReply decodes a RoundReply payload into rep, overwriting every
// field. ref is the reference anchor for the delta codecs (the coordinator
// passes codecReference's output); rep.Local receives the reconstructed
// full-precision model, reusing its backing array.
func unmarshalReply(p []byte, rep *RoundReply, ref []float64) error {
	c := wireCursor{b: p}
	rep.ClientID = int(c.i32("reply client id"))
	rep.Round = int(c.u32("reply round"))
	flags := c.u8("reply flags")
	rep.Codec = Codec(c.u8("reply codec"))
	rep.GradEvals = c.i64("reply grad evals")
	rep.SolveSeconds = c.f64("reply solve seconds")
	rep.Err = ""
	rep.Spans = nil
	rep.SpanBytes = 0
	if flags&repFlagErr != 0 {
		n := int(c.uvarint("error length"))
		rep.Err = string(c.take(n, "error text"))
		rep.Local = rep.Local[:0]
		return c.done()
	}
	if !rep.Codec.Valid() {
		return errFrame("unknown codec %d", rep.Codec)
	}
	var err error
	rep.Spans, rep.SpanBytes, err = unmarshalSpans(&c)
	if err != nil {
		return err
	}
	rep.Local, err = unmarshalVecUp(&c, rep.Codec, rep.Local, ref)
	if err != nil {
		return err
	}
	return c.done()
}

// unmarshalVecUp decodes an uplink vector into dst, reconstructing
// ref+delta under the delta codecs.
func unmarshalVecUp(c *wireCursor, codec Codec, dst, ref []float64) ([]float64, error) {
	dim := int(c.u32("vector dim"))
	if c.err != nil {
		return dst, c.err
	}
	needRef := codec == CodecInt16 || codec == CodecInt8 || codec == CodecTopK
	if needRef && len(ref) != dim {
		return dst, errFrame("delta codec %v needs a %d-dim reference anchor, have %d", codec, dim, len(ref))
	}
	switch codec {
	case CodecFloat32, CodecFloat64, CodecInt16, CodecInt8:
		if need := vecDownBodySize(codec, dim); c.off+need > len(c.b) {
			return dst, errFrame("vector body short: dim %d needs %d bytes, have %d", dim, need, len(c.b)-c.off)
		}
		dst = ensureF64(dst, dim)
		getVec(c, codec, dst, ref)
	case CodecTopK:
		k := int(c.u32("topk count"))
		if c.err != nil {
			return dst, c.err
		}
		if k > dim || c.off+16+5*k > len(c.b) {
			return dst, errFrame("topk body short or k %d > dim %d", k, dim)
		}
		dst = ensureF64(dst, dim)
		copy(dst, ref)
		lo, step := c.f64("quant lo"), c.f64("quant step")
		body := c.take(5*k, "topk body")
		idx, vals := body[:4*k], body[4*k:]
		// Every index is checked before any is applied.
		for i := 0; i < k; i++ {
			if j := binary.LittleEndian.Uint32(idx[4*i:]); j >= uint32(dim) {
				return dst, errFrame("topk index %d outside dim %d", j, dim)
			}
		}
		for i, q := range vals {
			dst[binary.LittleEndian.Uint32(idx[4*i:])] += dequantLevel(int(q), lo, step)
		}
	default:
		return dst, errFrame("unknown codec %d", codec)
	}
	return dst, c.err
}

// ---------------------------------------------------------------------------
// Connection IO

// frameWriter writes whole frames with a single Write call (one syscall
// per message, and the chaos/counting conn wrappers observe each message
// atomically).
type frameWriter struct{ w io.Writer }

func (fw *frameWriter) writeFrame(frame []byte) error {
	_, err := fw.w.Write(frame)
	return err
}

// frameReader reads frames off a connection into a buffer it owns and
// hands out each payload in place (valid until the next call). Every Read
// asks for all the room the buffer has, and the buffer grows to hold the
// largest frame seen, so a frame that has fully arrived takes one read
// call, header and payload together, and its payload is never copied.
// Bytes read past a frame stay buffered for the next call.
type frameReader struct {
	r      io.Reader
	buf    []byte // buf[lo:hi] is read and not yet handed out
	lo, hi int
}

func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	// The previous payload is released: move what follows it to the front.
	fr.hi = copy(fr.buf, fr.buf[fr.lo:fr.hi])
	fr.lo = 0
	if len(fr.buf) == 0 {
		fr.buf = make([]byte, 4096)
	}
	if err := fr.fill(frameHeaderSize); err != nil {
		return 0, nil, err
	}
	hdr := fr.buf[:frameHeaderSize]
	if hdr[0] != frameMagic {
		return 0, nil, errFrame("bad magic 0x%02x", hdr[0])
	}
	n := int(uint32(hdr[2]) | uint32(hdr[3])<<8 | uint32(hdr[4])<<16 | uint32(hdr[5])<<24)
	if n > maxFramePayload {
		return 0, nil, errFrame("payload of %d bytes exceeds the %d limit", n, maxFramePayload)
	}
	size := frameHeaderSize + n
	if len(fr.buf) < size {
		grown := make([]byte, size)
		copy(grown, fr.buf[:fr.hi])
		fr.buf = grown
	}
	if err := fr.fill(size); err != nil {
		return 0, nil, err
	}
	fr.lo = size
	return fr.buf[1], fr.buf[frameHeaderSize:size:size], nil
}

// fill reads until buf holds at least n bytes (n ≤ len(buf)). Like
// io.ReadFull, it reports io.EOF when the stream ends before any byte of
// the frame and io.ErrUnexpectedEOF when it ends inside one.
func (fr *frameReader) fill(n int) error {
	for fr.hi < n {
		m, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += m
		if fr.hi >= n {
			break
		}
		if err == io.EOF && fr.hi > 0 {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	return nil
}
