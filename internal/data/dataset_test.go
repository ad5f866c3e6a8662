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

func TestMerge(t *testing.T) {
	d := makeToyClassification(10, 3, 2, 1)
	e := makeToyClassification(3, 3, 2, 2)
	m := Merge(d, e)
	if m.N() != 13 {
		t.Fatal("Merge size wrong")
	}
	for j := 0; j < 3; j++ {
		if m.Sample(11)[j] != e.Sample(1)[j] || m.Y[11] != e.Y[1] {
			t.Fatal("Merge content wrong")
		}
	}
	// Merge must copy, not alias.
	m.Sample(0)[0] = 999
	if d.Sample(0)[0] == 999 {
		t.Fatal("Merge aliases its input")
	}
}

func TestSplitPartitionsExactly(t *testing.T) {
	// Split reorders its receiver, so every call gets a fresh dataset.
	fresh := func() *Dataset { return makeToyClassification(100, 4, 5, 2) }
	train, test := fresh().Split(0.75, 7)
	if train.N() != 75 || test.N() != 25 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
	// Deterministic given the seed.
	train2, _ := fresh().Split(0.75, 7)
	for i := range train.X {
		if train.X[i] != train2.X[i] {
			t.Fatal("split not deterministic")
		}
	}
	// Different seed gives a different permutation (almost surely).
	train3, _ := fresh().Split(0.75, 8)
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

// Property: Split(f) preserves every sample exactly once across both
// halves. It reorders its receiver's rows in place — they stay a
// permutation of the originals, row i the old row perm[i] of the seed's
// permutation — and returns views of it: train is the first rows, test
// the rest. An append to train leaves test unchanged.
func TestSplitIsPartitionQuick(t *testing.T) {
	f := func(seed int64, fracRaw uint8, nRaw uint8) bool {
		frac := float64(fracRaw%101) / 100
		n := int(nRaw % 50)
		d := makeToyClassification(n, 3, 4, seed)
		for i := 0; i < n; i++ {
			d.Sample(i)[0] = float64(i) // the row's original index
		}
		orig := append([]float64(nil), d.X...)
		origY := append([]int(nil), d.Y...)
		train, test := d.Split(frac, seed)
		perm := randx.New(seed).Perm(n)
		if d.N() != n || train.N()+test.N() != n {
			return false
		}
		for i, k := range perm {
			for j := 0; j < d.Dim; j++ {
				if d.Sample(i)[j] != orig[k*d.Dim+j] {
					return false
				}
			}
			if d.Y[i] != origY[k] {
				return false
			}
		}
		// The views are the receiver's rows [0, cut) and [cut, n).
		for i := 0; i < train.N(); i++ {
			if &train.Sample(i)[0] != &d.Sample(i)[0] {
				return false
			}
		}
		for i := 0; i < test.N(); i++ {
			if &test.Sample(i)[0] != &d.Sample(train.N() + i)[0] {
				return false
			}
		}
		// Train plus test hold every original row exactly once.
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
		if len(seen) != n {
			return false
		}
		heldX := append([]float64(nil), test.X...)
		heldY := append([]int(nil), test.Y...)
		train.AppendClass([]float64{-1, -2, -3}, 3)
		if train.N() != n-test.N()+1 || test.N() != len(heldY) {
			return false
		}
		for i, v := range heldX {
			if test.X[i] != v {
				return false
			}
		}
		for i, y := range heldY {
			if test.Y[i] != y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
