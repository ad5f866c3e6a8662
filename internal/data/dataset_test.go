package data

import (
	"testing"
	"testing/quick"

	"fedproxvr/internal/randx"
)

func makeToyClassification(n, dim, classes int, seed int64) *Dataset {
	rng := randx.New(seed)
	d := New(dim, classes, n)
	x := make([]float64, dim)
	for i := 0; i < n; i++ {
		randx.NormalVec(rng, x, 0, 1)
		d.AppendClass(x, i%classes)
	}
	return d
}

func TestAppendAndSample(t *testing.T) {
	d := New(3, 2, 4)
	d.AppendClass([]float64{1, 2, 3}, 0)
	d.AppendClass([]float64{4, 5, 6}, 1)
	if d.N() != 2 {
		t.Fatalf("N = %d", d.N())
	}
	if s := d.Sample(1); s[0] != 4 || s[2] != 6 {
		t.Fatalf("Sample(1) = %v", s)
	}
	if d.Y[1] != 1 {
		t.Fatal("label wrong")
	}
}

func TestAppendPanics(t *testing.T) {
	d := New(2, 2, 1)
	for _, fn := range []func(){
		func() { d.AppendClass([]float64{1}, 0) },    // wrong dim
		func() { d.AppendClass([]float64{1, 2}, 5) }, // bad label
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSubsetAndMerge(t *testing.T) {
	d := makeToyClassification(10, 3, 2, 1)
	sub := d.Subset([]int{0, 5, 9})
	if sub.N() != 3 {
		t.Fatal("Subset size wrong")
	}
	for j := 0; j < 3; j++ {
		if sub.Sample(1)[j] != d.Sample(5)[j] {
			t.Fatal("Subset content wrong")
		}
	}
	// Subset must copy, not alias.
	sub.Sample(0)[0] = 999
	if d.Sample(0)[0] == 999 {
		t.Fatal("Subset aliases parent")
	}
	m := Merge(d, sub)
	if m.N() != 13 {
		t.Fatal("Merge size wrong")
	}
}

func TestSplitPartitionsExactly(t *testing.T) {
	d := makeToyClassification(100, 4, 5, 2)
	train, test := d.Split(0.75, 7)
	if train.N() != 75 || test.N() != 25 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
	// Deterministic given the seed.
	train2, _ := d.Split(0.75, 7)
	for i := range train.X {
		if train.X[i] != train2.X[i] {
			t.Fatal("split not deterministic")
		}
	}
	// Different seed gives a different permutation (almost surely).
	train3, _ := d.Split(0.75, 8)
	same := true
	for i := range train.Y {
		if train.Y[i] != train3.Y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical splits")
	}
}

// Property: Split(f) preserves every sample exactly once across both halves.
func TestSplitIsPartitionQuick(t *testing.T) {
	f := func(seed int64, fracRaw uint8) bool {
		frac := float64(fracRaw%100) / 100
		d := makeToyClassification(40, 2, 4, seed)
		// Make every sample identifiable via its first feature.
		for i := 0; i < d.N(); i++ {
			d.Sample(i)[0] = float64(i)
		}
		train, test := d.Split(frac, seed)
		if train.N()+test.N() != d.N() {
			return false
		}
		seen := map[float64]bool{}
		for _, ds := range []*Dataset{train, test} {
			for i := 0; i < ds.N(); i++ {
				id := ds.Sample(i)[0]
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == d.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
