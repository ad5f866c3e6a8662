package transport

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fedproxvr/internal/randx"
)

func TestTopKKeepsLargest(t *testing.T) {
	w := []float64{0.1, -5, 0.3, 4, -0.2, 0}
	sv, err := TopK(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense := sv.Dense()
	want := []float64{0, -5, 0, 4, 0, 0}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("Dense = %v, want %v", dense, want)
		}
	}
	// Exact framed size: dim+k+lo+step header, then u32 index + int8 level
	// per kept coordinate.
	if sv.WireSize() != 24+5*2 {
		t.Fatalf("WireSize = %d", sv.WireSize())
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if _, err := TopK([]float64{1}, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	// k ≥ len keeps everything.
	w := []float64{1, -2, 3}
	sv, err := TopK(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	dense := sv.Dense()
	for i := range w {
		if dense[i] != w[i] {
			t.Fatal("k≥len should be lossless")
		}
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	w := []float64{1, 1, 1, 1}
	a, _ := TopK(w, 2)
	b, _ := TopK(w, 2)
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
	// Ties resolve to the lowest indices.
	if a.Indices[0] != 0 || a.Indices[1] != 1 {
		t.Fatalf("tie indices = %v, want [0 1]", a.Indices)
	}
}

func TestSparsifyAndApplyDelta(t *testing.T) {
	rng := randx.New(1)
	dim := 100
	anchor := make([]float64, dim)
	local := make([]float64, dim)
	randx.NormalVec(rng, anchor, 0, 1)
	copy(local, anchor)
	// Local differs from the anchor in 5 coordinates only.
	for _, j := range []int{3, 17, 42, 77, 99} {
		local[j] += float64(j)
	}
	sv, err := SparsifyDelta(local, anchor, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, dim)
	if err := ApplyDelta(got, anchor, sv); err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if math.Abs(got[i]-local[i]) > 1e-15 {
			t.Fatalf("reconstruction differs at %d", i)
		}
	}
	// Compression: 5 framed pairs vs 100 floats.
	if sv.WireSize() >= dim*8/10 {
		t.Fatalf("no meaningful compression: %d bytes", sv.WireSize())
	}
	// In-place apply (dst aliases anchor).
	if err := ApplyDelta(anchor, anchor, sv); err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if math.Abs(anchor[i]-local[i]) > 1e-15 {
			t.Fatal("in-place apply broken")
		}
	}
}

// Regression: ApplyDelta indexed dst[0]/anchor[0] unconditionally in its
// aliasing check, panicking on zero-length vectors. Exercise the whole
// sparse API at dim 0 and dim 1.
func TestSparseZeroAndOneDim(t *testing.T) {
	// dim 0: every operation is a valid no-op.
	sv, err := TopK(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Dim != 0 || len(sv.Indices) != 0 {
		t.Fatalf("TopK(nil) = %+v", sv)
	}
	if got := sv.Dense(); len(got) != 0 {
		t.Fatalf("Dense = %v", got)
	}
	if err := sv.AddTo(nil, 1); err != nil {
		t.Fatal(err)
	}
	if sv, err = SparsifyDelta(nil, nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(nil, nil, sv); err != nil {
		t.Fatalf("zero-dim ApplyDelta: %v", err)
	}
	if err := ApplyDelta([]float64{}, []float64{}, sv); err != nil {
		t.Fatalf("empty-slice ApplyDelta: %v", err)
	}
	if sv.WireSize() != 24 {
		t.Fatalf("zero-dim WireSize = %d", sv.WireSize())
	}

	// dim 1, both the aliased and the non-aliased dst path.
	anchor := []float64{2.5}
	local := []float64{4.0}
	sv, err = SparsifyDelta(local, anchor, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 1)
	if err := ApplyDelta(got, anchor, sv); err != nil {
		t.Fatal(err)
	}
	if got[0] != 4.0 {
		t.Fatalf("reconstructed %v, want 4", got[0])
	}
	if err := ApplyDelta(anchor, anchor, sv); err != nil {
		t.Fatal(err)
	}
	if anchor[0] != 4.0 {
		t.Fatalf("in-place reconstructed %v, want 4", anchor[0])
	}
	one, err := TopK([]float64{-7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := one.Dense(); len(d) != 1 || d[0] != -7 {
		t.Fatalf("1-element Dense = %v", d)
	}
	dst := []float64{1}
	if err := one.AddTo(dst, 2); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1-14 {
		t.Fatalf("AddTo = %v", dst[0])
	}
}

func TestSparseValidation(t *testing.T) {
	if _, err := SparsifyDelta([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("length mismatch should error")
	}
	sv, _ := TopK([]float64{1, 2}, 1)
	if err := sv.AddTo(make([]float64, 3), 1); err == nil {
		t.Fatal("AddTo dim mismatch should error")
	}
	if err := ApplyDelta(make([]float64, 3), make([]float64, 3), sv); err == nil {
		t.Fatal("ApplyDelta dim mismatch should error")
	}
}

// Property: TopK(w, k) is the best k-sparse L2 approximation of w —
// no other selection of k coordinates has smaller residual.
func TestTopKOptimalityQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := randx.New(seed)
		w := make([]float64, 12)
		randx.NormalVec(rng, w, 0, 2)
		k := 1 + int(kRaw%6)
		sv, err := TopK(w, k)
		if err != nil {
			return false
		}
		dense := sv.Dense()
		var residual float64
		for i := range w {
			d := w[i] - dense[i]
			residual += d * d
		}
		// Residual equals the sum of squares of the dropped coordinates;
		// optimality means dropped are the smallest |w_i|.
		var kept float64
		for _, v := range sv.Values {
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
// ascending on ties), same output layout.
func topKSortRef(w []float64, k int) *SparseVec {
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
	sv := &SparseVec{Dim: len(w), Indices: make([]int32, k), Values: make([]float64, k)}
	for i, j := range kept {
		sv.Indices[i] = int32(j)
		sv.Values[i] = w[j]
	}
	return sv
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
		got, err := TopK(w, k)
		if err != nil {
			t.Fatal(err)
		}
		want := topKSortRef(w, k)
		if len(got.Indices) != len(want.Indices) {
			t.Fatalf("trial %d: kept %d coords, want %d", trial, len(got.Indices), len(want.Indices))
		}
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] || got.Values[i] != want.Values[i] {
				t.Fatalf("trial %d (n=%d k=%d): entry %d = (%d,%v), want (%d,%v)",
					trial, n, k, i, got.Indices[i], got.Values[i], want.Indices[i], want.Values[i])
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
		if _, err := TopK(w, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
