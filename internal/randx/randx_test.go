package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	a := DeriveSeed(42, 0)
	b := DeriveSeed(42, 0)
	if a != b {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(42, 1) == a {
		t.Fatal("adjacent streams collide")
	}
	if DeriveSeed(43, 0) == a {
		t.Fatal("adjacent seeds collide")
	}
}

func TestNewStreamReproducible(t *testing.T) {
	r1 := NewStream(7, 3)
	r2 := NewStream(7, 3)
	for i := 0; i < 10; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("same stream diverged")
		}
	}
}

func TestNormalVecMoments(t *testing.T) {
	rng := New(1)
	xs := make([]float64, 200000)
	NormalVec(rng, xs, 2.0, 3.0)
	var sum, sumsq float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	for _, v := range xs {
		d := v - mean
		sumsq += d * d
	}
	sd := math.Sqrt(sumsq / float64(len(xs)))
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if math.Abs(sd-3.0) > 0.05 {
		t.Fatalf("stddev = %v, want ~3", sd)
	}
}

func TestPowerLawSizesBoundsAndSkew(t *testing.T) {
	rng := New(3)
	sizes := PowerLawSizes(rng, 5000, 0.5, 37, 3277)
	if len(sizes) != 5000 {
		t.Fatal("wrong count")
	}
	var below, above int
	mid := (37 + 3277) / 2
	for _, s := range sizes {
		if s < 37 || s > 3277 {
			t.Fatalf("size %d outside [37, 3277]", s)
		}
		if s < mid {
			below++
		} else {
			above++
		}
	}
	// Power law with alpha=0.5: 1 - u^(1/alpha) = 1 - u², so x = span*(1-u²)
	// is concentrated HIGH for small u... verify skew exists at all (not
	// uniform): the two halves should differ markedly.
	if below == 0 || above == 0 {
		t.Fatal("degenerate distribution")
	}
	ratio := float64(above) / float64(below)
	if ratio > 0.8 && ratio < 1.25 {
		t.Fatalf("distribution looks uniform (ratio %v), expected skew", ratio)
	}
}

func TestPowerLawSizesEdgeCases(t *testing.T) {
	rng := New(4)
	if PowerLawSizes(rng, 0, 1, 1, 10) != nil {
		t.Fatal("n=0 should return nil")
	}
	sizes := PowerLawSizes(rng, 10, 1, 5, 5)
	for _, s := range sizes {
		if s != 5 {
			t.Fatalf("min==max should pin size, got %d", s)
		}
	}
	sizes = PowerLawSizes(rng, 10, 1, -3, 2) // min clamped to 1
	for _, s := range sizes {
		if s < 1 || s > 2 {
			t.Fatalf("clamped range violated: %d", s)
		}
	}
}

func TestChoiceWithout(t *testing.T) {
	rng := New(5)
	idx := ChoiceWithout(rng, 10, 10)
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 10 || seen[i] {
			t.Fatalf("invalid or duplicate index %d", i)
		}
		seen[i] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when k > n")
		}
	}()
	ChoiceWithout(rng, 3, 4)
}

func TestBatchRange(t *testing.T) {
	rng := New(6)
	dst := make([]int, 64)
	Batch(rng, dst, 10)
	for _, i := range dst {
		if i < 0 || i >= 10 {
			t.Fatalf("batch index %d out of range", i)
		}
	}
}

// Property: ChoiceWithout always returns k distinct in-range indices.
func TestChoiceWithoutQuick(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		idx := ChoiceWithout(New(seed), n, k)
		if len(idx) != k {
			return false
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
