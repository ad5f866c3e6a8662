package transport

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fedproxvr/internal/randx"
)

// keptTopK returns the coordinates the topk-delta codec keeps of w: k
// clamped to [1, len(w)] as the wire clamps it, then the selection, in
// ascending index order.
func keptTopK(w []float64, k int) []int {
	k = clampTopK(k, len(w))
	if k == 0 {
		return nil
	}
	return append([]int(nil), selectTopK(w, k, nil)[:k]...)
}

func TestTopKKeepsLargest(t *testing.T) {
	w := []float64{0.1, -5, 0.3, 4, -0.2, 0}
	if got := keptTopK(w, 2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("kept %v, want [1 3]", got)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	// k below 1 keeps one coordinate, the largest.
	if got := keptTopK([]float64{1, -3}, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=0 kept %v, want [1]", got)
	}
	// k ≥ len keeps everything.
	if got := keptTopK([]float64{1, -2, 3}, 10); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("k≥len kept %v, want every coordinate", got)
	}
	// An empty vector keeps nothing.
	if got := keptTopK(nil, 3); len(got) != 0 {
		t.Fatalf("empty vector kept %v", got)
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	w := []float64{1, 1, 1, 1}
	a, b := keptTopK(w, 2), keptTopK(w, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
	// Ties resolve to the lowest indices.
	if a[0] != 0 || a[1] != 1 {
		t.Fatalf("tie indices = %v, want [0 1]", a)
	}
}

// Property: keeping the selected k coordinates of w is the best k-sparse
// L2 approximation of w — no other selection of k coordinates has smaller
// residual.
func TestTopKOptimalityQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := randx.New(seed)
		w := make([]float64, 12)
		randx.NormalVec(rng, w, 0, 2)
		k := 1 + int(kRaw%6)
		dense := make([]float64, len(w))
		for _, j := range keptTopK(w, k) {
			dense[j] = w[j]
		}
		var residual float64
		for i := range w {
			d := w[i] - dense[i]
			residual += d * d
		}
		// Residual equals the sum of squares of the dropped coordinates;
		// optimality means dropped are the smallest |w_i|.
		var kept float64
		for _, v := range dense {
			kept += v * v
		}
		var total float64
		for _, v := range w {
			total += v * v
		}
		// kept must be the k largest squares: compare against sorted.
		sq := make([]float64, len(w))
		for i, v := range w {
			sq[i] = v * v
		}
		// selection check: kept ≥ any alternative k-subset sum ⇔ kept =
		// sum of k largest squares.
		best := 0.0
		for i := 0; i < k; i++ {
			maxJ := 0
			for j := range sq {
				if sq[j] > sq[maxJ] {
					maxJ = j
				}
			}
			best += sq[maxJ]
			sq[maxJ] = -1
		}
		return math.Abs(kept-best) < 1e-12 && math.Abs(residual-(total-kept)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// topKSortRef is the original full-sort selection, kept as the reference
// for the quickselect equivalence test: same order (|w| descending, index
// ascending on ties), the kept indices in ascending order.
func topKSortRef(w []float64, k int) []int {
	if k > len(w) {
		k = len(w)
	}
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := abs(w[idx[a]]), abs(w[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	kept := idx[:k]
	sort.Ints(kept)
	return kept
}

func TestTopKQuickselectMatchesSort(t *testing.T) {
	rng := randx.New(77)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		w := make([]float64, n)
		for i := range w {
			switch rng.Intn(4) {
			case 0:
				w[i] = 0 // force magnitude ties
			case 1:
				w[i] = float64(rng.Intn(3)) // more ties, mixed signs below
			default:
				w[i] = rng.NormFloat64()
			}
			if rng.Intn(2) == 0 {
				w[i] = -w[i]
			}
		}
		k := 1 + rng.Intn(n+10) // sometimes k > n
		got := keptTopK(w, k)
		want := topKSortRef(w, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d coords, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): entry %d = %d, want %d", trial, n, k, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkTopKQuickselect(b *testing.B) {
	rng := randx.New(78)
	w := make([]float64, 100000)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectTopK(w, 1000, nil)
	}
}
