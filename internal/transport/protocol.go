// Package transport turns the federated runtime into a real distributed
// system: a Coordinator (server) drives synchronous rounds over TCP against
// Worker processes (devices), exchanging length-prefixed binary frames (see
// frame.go). Devices are seeded exactly like the in-process simulator's, so a
// distributed run reproduces an in-process run bit-for-bit given the same
// seeds — which the integration tests assert. An aggregation tree is the
// same fleet one level deeper: its peers are AggregatorNodes, each speaking
// for a contiguous shard of devices, and the coordinator learns which shape
// it drives from the role the peers declare in their one Hello. Both peers
// are built the same way: NewWorker or NewAggregatorNode, which do not
// dial; then the setters of the session they share — SetChaos for a fault
// schedule, SetLease for a jobs-control-plane lease, SetRejoin,
// EnableTrace — which compose freely; then Serve, which dials, says Hello
// and serves rounds until Done or Close.
//
// The runtime degrades gracefully under worker failures, matching the
// paper's partial-participation model (a round aggregates whichever
// devices report): a per-round worker fault — dial reset, decode error,
// deadline exceeded, bad reply — becomes a dropout for that round rather
// than a run-aborting error. Application-level failures are retried with
// backoff (FaultPolicy.MaxRetries); network-level failures tear the
// connection down, and a restarted worker rejoins between rounds by
// re-dialing and re-sending its Hello: the same ID, device range and
// sample count. Only a fully-dead cohort, or more than
// FaultPolicy.MaxFailedRounds consecutive rounds below the
// FaultPolicy.MinParticipants quorum floor, aborts the run.
package transport

import (
	"fmt"

	"fedproxvr/internal/optim"
	"fedproxvr/internal/trace"
)

// Hello is the first message every fleet peer sends after connecting. The
// peer speaks for the contiguous device ID range [LoDevice,
// LoDevice+NumDevices): a Worker for device n says [n, n+1), an
// aggregation-tree AggregatorNode says its shard's range. NumSamples is
// the range's total Σ D_n — the coordinator only ever learns per-peer
// totals, which is what keeps a tree root's memory O(model), not
// O(devices).
type Hello struct {
	ClientID   int
	LoDevice   int
	NumDevices int
	NumSamples int64
	// Partial is the peer's role: it replies with a PartialSum over its
	// range (an aggregation-tree node) instead of a RoundReply for its one
	// device. One fleet holds one role.
	Partial bool

	// Lease fields (jobs control plane): the peer offers to
	// serve job JobID under coordinator incarnation Epoch. A coordinator
	// running with a lease rejects a mismatched Epoch with a LeaseReject
	// frame carrying the current values, and the peer re-Hello's with
	// them through its rejoin loop — the fence that keeps a worker leased
	// to a dead coordinator incarnation from silently joining the next
	// one's rounds. Zero values mean "no lease".
	JobID string
	Epoch int64
}

// LeaseReject is the coordinator's answer to a Hello whose lease is stale:
// it names the job and lease epoch the coordinator is currently serving,
// and the connection closes. The peer adopts the told values and
// re-Hello's.
type LeaseReject struct {
	JobID string
	Epoch int64
}

// RoundRequest is broadcast by the coordinator at each global iteration.
// Done=true tells the worker to exit (other fields are then ignored).
// The worker must reply in the same codec — the coordinator enforces this
// (see exchange) and treats a mismatched reply as a worker fault rather
// than silently dequantizing it.
//
// Anchor is full precision going into the marshaller and the dequantized
// anchor coming out of the decoder.
type RoundRequest struct {
	Round  int
	Codec  Codec
	Anchor []float64
	Local  optim.LocalConfig
	Done   bool
	// TopK is the number of delta coordinates to keep under CodecTopK
	// (ignored by the other codecs). The coordinator chooses it per round
	// from SetTopKFrac so both peers agree on the sparsity budget.
	TopK int
	// TraceID/SpanID propagate the coordinator's trace context: SpanID is
	// the round span a tracing worker parents its solve spans under.
	// TraceID == 0 means tracing is off and the worker records nothing.
	TraceID uint64
	SpanID  uint64
	// ActivateProb, when positive, tells an aggregation-tree node to run
	// probabilistic per-device activation over its shard this round: device
	// id participates iff engine.Activated(seed, Round, id, ActivateProb).
	// The draw is a pure function of (seed, round, id), so the node needs no
	// extra coordination to agree with the root on the cohort. Plain workers
	// ignore it (their single device is addressed by the selection itself).
	ActivateProb float64
}

// RoundReply carries one device's local model back to the coordinator.
// GradEvals is int64 end to end so cumulative counts survive 32-bit
// platforms unnarrowed.
type RoundReply struct {
	ClientID int
	Round    int
	// Codec is the codec the reply is encoded in. The coordinator rejects a
	// reply whose codec differs from the round request's (an application-
	// level fault, retried per FaultPolicy).
	Codec     Codec
	Local     []float64
	GradEvals int64
	// SolveSeconds is the worker-measured wall-clock duration of the local
	// solve, so the coordinator's observability layer can split a round
	// trip into compute and communication shares.
	SolveSeconds float64
	Err          string // non-empty if the worker failed this round
	// Spans are the worker's trace spans for this round, recorded relative
	// to its receipt of the request (see trace.WireSpan); empty unless the
	// request carried a TraceID and the worker has tracing enabled.
	Spans []trace.WireSpan
	// SpanBytes is decoder-measured: how many payload bytes the shipped
	// span block occupied beyond the 1-byte empty span count that the
	// closed-form ReplyWireSize already accounts for. Zero with tracing
	// off; obs accounting subtracts it so wire-byte assertions stay
	// byte-exact under -trace-spans (never sent, only measured on receipt).
	SpanBytes int
}

// PartialSum is an aggregation-tree node's round reply: the pre-weighted
// partial sum Σ D_n·w_n over its shard's reporting devices, the shard's
// round weight Σ D_n, and the rolled-up per-shard accounting. Always
// CodecFloat64 on the wire — streaming exact partials is what keeps the
// tree fold bit-identical to a flat ShardedMean over the same shard map.
type PartialSum struct {
	ShardID int
	Round   int
	// Devices counts the shard's devices that reported this round.
	Devices int
	// GradEvals is the node's cumulative gradient-evaluation count over its
	// shard (same semantics as RoundReply.GradEvals).
	GradEvals int64
	// SolveSeconds is the node-measured wall-clock duration of the shard
	// fan-out (its whole round, not one device's solve).
	SolveSeconds float64
	// Weight is Σ D_n over the reporting devices — raw sample counts, so
	// the root's single normalization is exact integer arithmetic in
	// float64. Zero means the entire shard sat out (the root skips it).
	Weight float64
	Sum    []float64
	Err    string // non-empty if the node failed this round
	// Spans/SpanBytes mirror RoundReply: shipped trace spans and their
	// decoder-measured excess bytes.
	Spans     []trace.WireSpan
	SpanBytes int
}

// protocolError annotates failures with the remote peer.
func protocolError(who string, err error) error {
	return fmt.Errorf("transport: %s: %w", who, err)
}
