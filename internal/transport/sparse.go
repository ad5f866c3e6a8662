package transport

import "slices"

// selectTopK is the topk-delta codec's selection of the k largest-|w_i|
// coordinates, over a reusable permutation: it returns idx (grown to
// len(w)) with idx[:k] holding the kept coordinates in ascending index
// order, 1 ≤ k ≤ len(w). The wire encoder calls it with the same buffer
// every round. Keeping the top-k of a model delta is the classic FL
// upload-compression scheme (Konečný et al., "Strategies for Improving
// Communication Efficiency"); with k ≪ dim it cuts per-round upload by
// about dim/k at the cost of a biased update.
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
