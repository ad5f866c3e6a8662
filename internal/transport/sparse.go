package transport

import (
	"fmt"
	"slices"
)

// SparseVec is a top-k sparsified model update: only the k
// largest-magnitude coordinates are kept, as (index, value) pairs. It is
// the classic FL upload-compression scheme (Konečný et al., "Strategies
// for Improving Communication Efficiency"); with k ≪ dim it cuts
// per-round upload by dim/k at the cost of a biased update.
type SparseVec struct {
	Dim     int
	Indices []int32
	Values  []float64
}

// TopK sparsifies w, keeping the k largest-|w_i| coordinates (all of them
// if k ≥ len(w)). k must be positive.
func TopK(w []float64, k int) (*SparseVec, error) {
	if k <= 0 {
		return nil, fmt.Errorf("transport: TopK k must be positive, got %d", k)
	}
	if k > len(w) {
		k = len(w)
	}
	kept := selectTopK(w, k, nil)[:k]
	sv := &SparseVec{
		Dim:     len(w),
		Indices: make([]int32, k),
		Values:  make([]float64, k),
	}
	for i, j := range kept {
		sv.Indices[i] = int32(j)
		sv.Values[i] = w[j]
	}
	return sv, nil
}

// selectTopK is TopK's selection over a reusable permutation: it returns
// idx (grown to len(w)) with idx[:k] holding the kept coordinates in
// ascending index order, 1 ≤ k ≤ len(w). The wire encoder calls it with
// the same buffer every round.
func selectTopK(w []float64, k int, idx []int) []int {
	if cap(idx) < len(w) {
		idx = make([]int, len(w))
	}
	idx = idx[:len(w)]
	for i := range idx {
		idx[i] = i
	}
	// Partial selection via quickselect is expected O(n) vs O(n log n) for a
	// full sort, and deterministic: the order (|w| descending, index
	// ascending on ties) is strict, and the median-of-three pivot choice
	// involves no randomness, so the kept set is a pure function of w and k.
	quickselect(w, idx, k)
	slices.Sort(idx[:k])
	return idx
}

// Dense reconstructs the full vector (zeros elsewhere).
func (s *SparseVec) Dense() []float64 {
	out := make([]float64, s.Dim)
	for i, j := range s.Indices {
		out[j] = s.Values[i]
	}
	return out
}

// AddTo scatter-adds scale·s into dst (len must equal Dim).
func (s *SparseVec) AddTo(dst []float64, scale float64) error {
	if len(dst) != s.Dim {
		return fmt.Errorf("transport: AddTo dim %d, want %d", len(dst), s.Dim)
	}
	for i, j := range s.Indices {
		dst[j] += scale * s.Values[i]
	}
	return nil
}

// WireSize returns the exact framed encoding size in bytes: the uplink
// topk layout is dim(u32) k(u32) lo(f64) step(f64), then a u32 index and
// an int8 level per kept coordinate (see frame.go). The RoundStats
// wire-byte accounting tests assert against this number.
func (s *SparseVec) WireSize() int { return 24 + 5*len(s.Indices) }

// SparsifyDelta compresses an update as TopK(local − anchor): deltas
// concentrate mass in few coordinates far better than raw models, and the
// receiver reconstructs anchor + delta. Returns the sparse delta.
func SparsifyDelta(local, anchor []float64, k int) (*SparseVec, error) {
	if len(local) != len(anchor) {
		return nil, fmt.Errorf("transport: delta length mismatch %d vs %d", len(local), len(anchor))
	}
	delta := make([]float64, len(local))
	for i := range delta {
		delta[i] = local[i] - anchor[i]
	}
	return TopK(delta, k)
}

// ApplyDelta reconstructs anchor + sparse delta into dst (which may alias
// anchor).
func ApplyDelta(dst, anchor []float64, delta *SparseVec) error {
	if len(dst) != len(anchor) || delta.Dim != len(anchor) {
		return fmt.Errorf("transport: ApplyDelta dimension mismatch")
	}
	// Guard len > 0: indexing [0] of a zero-length slice panics, and a
	// zero-dim ApplyDelta is a valid no-op.
	if len(dst) > 0 && &dst[0] != &anchor[0] {
		copy(dst, anchor)
	}
	return delta.AddTo(dst, 1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// topLess is the selection order: |w| descending, ascending index on ties.
// It is a strict total order (a ≠ b ⇒ exactly one of topLess(a,b),
// topLess(b,a)), which makes the selected set unique.
func topLess(w []float64, a, b int) bool {
	va, vb := abs(w[a]), abs(w[b])
	if va != vb {
		return va > vb
	}
	return a < b
}

// quickselect reorders idx so that idx[:k] are the k first elements under
// topLess (the k largest magnitudes). Expected O(n) with deterministic
// median-of-three pivoting; elements within idx[:k] are left unordered.
func quickselect(w []float64, idx []int, k int) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		p := partitionTop(w, idx, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partitionTop partitions idx[lo:hi+1] around a median-of-three pivot and
// returns the pivot's final position.
func partitionTop(w []float64, idx []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if topLess(w, idx[mid], idx[lo]) {
		idx[lo], idx[mid] = idx[mid], idx[lo]
	}
	if topLess(w, idx[hi], idx[lo]) {
		idx[lo], idx[hi] = idx[hi], idx[lo]
	}
	if topLess(w, idx[hi], idx[mid]) {
		idx[mid], idx[hi] = idx[hi], idx[mid]
	}
	// The median of the three now sits at mid; use it as the pivot.
	idx[mid], idx[hi] = idx[hi], idx[mid]
	pivot := idx[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if topLess(w, idx[j], pivot) {
			idx[i], idx[j] = idx[j], idx[i]
			i++
		}
	}
	idx[i], idx[hi] = idx[hi], idx[i]
	return i
}
