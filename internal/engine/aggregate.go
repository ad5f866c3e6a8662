package engine

import (
	"fmt"
	"math"
	"math/rand"

	"fedproxvr/internal/mathx"
)

// Aggregator folds one round's local models into the global model in
// place: w̄ ← combine(locals). locals[i] is the model reported by device
// selected[i]; implementations may reuse locals as scratch (the buffers
// belong to the round and are dead after aggregation).
type Aggregator interface {
	Aggregate(w []float64, selected []int, locals [][]float64) error
}

// WeightedMean is line 12 of Algorithm 1 over the participating cohort:
// w̄ = Σ (D_n / Σ_selected D_n) · w_n.
type WeightedMean struct {
	weights []float64
	scratch []float64
}

// NewWeightedMean builds the data-size-weighted aggregator.
func NewWeightedMean(weights []float64, dim int) *WeightedMean {
	return &WeightedMean{weights: weights, scratch: make([]float64, dim)}
}

// Aggregate implements Aggregator.
func (a *WeightedMean) Aggregate(w []float64, selected []int, locals [][]float64) error {
	wsum := selectedWeight(a.weights, selected)
	if wsum == 0 {
		return fmt.Errorf("engine: selected cohort has zero total weight")
	}
	mathx.Zero(a.scratch)
	for i, id := range selected {
		mathx.Axpy(a.weights[id]/wsum, locals[i], a.scratch)
	}
	copy(w, a.scratch)
	return nil
}

// DPMean is the DP-FedAvg mechanism: every device's round update
// Δ_n = w_n − w̄ is clipped to at most clip in L2 norm, the clipped deltas
// are aggregated by data-size weights, and iid N(0, (noise·clip)²) noise is
// added to the aggregate — the mechanism, without a formal (ε, δ)
// accountant. It consumes the locals as delta scratch.
type DPMean struct {
	weights []float64
	clip    float64
	noise   float64
	rng     *rand.Rand // the engine's server stream: noise draws stay in seed order
	scratch []float64
}

// NewDPMean builds the clipping+noise aggregator for e; install it with
// e.SetAggregator. Its noise comes from e's server stream, after the
// round's selection and dropout draws, so a seed fixes every draw. clip
// must be finite and positive and noise finite and non-negative (0 clips
// without noise).
func NewDPMean(e *Engine, clip, noise float64) (*DPMean, error) {
	// Inverted comparisons so NaN is rejected too.
	if !(clip > 0 && clip <= math.MaxFloat64) {
		return nil, fmt.Errorf("engine: DP clip must be finite and positive, got %v", clip)
	}
	if !(noise >= 0 && noise <= math.MaxFloat64) {
		return nil, fmt.Errorf("engine: DP noise must be finite and non-negative, got %v", noise)
	}
	return &DPMean{weights: e.weights, clip: clip, noise: noise, rng: e.server, scratch: make([]float64, len(e.w))}, nil
}

// Aggregate implements Aggregator.
func (a *DPMean) Aggregate(w []float64, selected []int, locals [][]float64) error {
	wsum := selectedWeight(a.weights, selected)
	if wsum == 0 {
		return fmt.Errorf("engine: selected cohort has zero total weight")
	}
	mathx.Zero(a.scratch)
	for i, id := range selected {
		delta := locals[i] // reuse the device buffer as Δ_n
		mathx.Sub(delta, delta, w)
		if n := mathx.Nrm2(delta); n > a.clip {
			mathx.Scal(a.clip/n, delta)
		}
		mathx.Axpy(a.weights[id]/wsum, delta, a.scratch)
	}
	if a.noise > 0 {
		std := a.noise * a.clip
		for i := range a.scratch {
			a.scratch[i] += std * a.rng.NormFloat64()
		}
	}
	mathx.Axpy(1, a.scratch, w)
	return nil
}

// PartialMean folds pre-weighted partial sums from aggregation-tree shards:
// locals[i] is Σ D_n·w_n over child selected[i]'s reporting devices and
// weight(selected[i]) is that shard's Σ D_n for the round. The root divides
// once by the grand total, so the arithmetic is exactly the canonical
// sharded fold of ShardedMean — which is what makes a tree run bit-identical
// to a flat run using ShardedMean over the same shard map. Children with
// zero round weight (every device in the shard dropped or sat out) are
// skipped entirely, matching a flat fold in which their devices simply do
// not appear; if every child reports zero weight the global model is left
// unchanged, the same no-op as a flat all-dropped round.
type PartialMean struct {
	weight func(child int) float64
	acc    []float64
}

// NewPartialMean builds the root-of-tree aggregator. weight reports a
// child's current-round Σ D_n (the transport executor exposes this from the
// PartialSum frames it collected).
func NewPartialMean(dim int, weight func(child int) float64) *PartialMean {
	return &PartialMean{weight: weight, acc: make([]float64, dim)}
}

// Aggregate implements Aggregator.
func (a *PartialMean) Aggregate(w []float64, selected []int, locals [][]float64) error {
	mathx.Zero(a.acc)
	var total float64
	for i, child := range selected {
		ws := a.weight(child)
		if ws == 0 {
			continue
		}
		mathx.Axpy(1, locals[i], a.acc)
		total += ws
	}
	if total == 0 {
		return nil
	}
	mathx.Scal(1/total, a.acc)
	copy(w, a.acc)
	return nil
}

// ShardedMean is the flat-engine reference for tree aggregation: devices
// are grouped into contiguous shards (shard s covers IDs [ends[s-1],
// ends[s])), each shard accumulates Σ D_n·w_n over its reporting devices
// with RAW sample counts — integer-valued float64s, so the per-shard sums
// are exact and order-independent below 2^53 — and the shard partials are
// folded in ascending shard order before a single normalization by the
// grand total Σ D_n. This is float-for-float the operation sequence the
// aggregation tree performs (AggregatorNode per shard, PartialMean at the
// root), so for the same seed the two are bit-identical by construction.
// selected must be ascending (true for full participation and for
// probabilistic activation, the tree's two selection modes).
type ShardedMean struct {
	counts  []float64 // per-device D_n, raw sample counts
	ends    []int     // cumulative shard end IDs, ascending; last == len(counts)
	acc     []float64
	partial []float64
}

// NewShardedMean builds the sharded reference aggregator. counts are raw
// per-device sample counts (not normalized shares); ends are the cumulative
// shard boundaries.
func NewShardedMean(counts []float64, ends []int, dim int) *ShardedMean {
	return &ShardedMean{
		counts:  counts,
		ends:    ends,
		acc:     make([]float64, dim),
		partial: make([]float64, dim),
	}
}

// Aggregate implements Aggregator.
func (a *ShardedMean) Aggregate(w []float64, selected []int, locals [][]float64) error {
	mathx.Zero(a.acc)
	var total float64
	i := 0
	for _, end := range a.ends {
		mathx.Zero(a.partial)
		var ws float64
		n := 0
		for i < len(selected) && selected[i] < end {
			id := selected[i]
			mathx.Axpy(a.counts[id], locals[i], a.partial)
			ws += a.counts[id]
			n++
			i++
		}
		if n == 0 {
			continue
		}
		mathx.Axpy(1, a.partial, a.acc)
		total += ws
	}
	if i != len(selected) {
		return fmt.Errorf("engine: ShardedMean needs ascending selected IDs within the shard map (got id %d past end %d)",
			selected[i], a.ends[len(a.ends)-1])
	}
	if total == 0 {
		return nil
	}
	mathx.Scal(1/total, a.acc)
	copy(w, a.acc)
	return nil
}

func selectedWeight(weights []float64, selected []int) float64 {
	var s float64
	for _, id := range selected {
		s += weights[id]
	}
	return s
}
