// Package data provides the dataset model, heterogeneous federated
// partitioners, and the three workload generators used by the paper's
// experiments: the FedProx-style Synthetic(α, β) dataset, a procedural
// MNIST-like image generator, and a procedural Fashion-MNIST-like generator
// (substitutes for the real image corpora, which are not available offline;
// see DESIGN.md §2), plus an IDX writer that exports the generated images.
// Each generator and the label-skew partition has the one shape the paper
// uses, fixed as constants: Synthetic(α, β) at 60 features and 10 classes,
// 10-class images, and two labels per device.
package data

import (
	"fmt"

	"fedproxvr/internal/randx"
)

// Dataset is a dense supervised dataset. Features are stored flat,
// row-major, with stride Dim, for cache-friendly sweeps. Y holds class
// indices in [0, NumClasses).
type Dataset struct {
	Dim        int
	NumClasses int
	X          []float64 // len == N*Dim
	Y          []int     // class labels (len N)
}

// New allocates an empty dataset with capacity for n samples.
func New(dim, numClasses, n int) *Dataset {
	return &Dataset{Dim: dim, NumClasses: numClasses, X: make([]float64, 0, n*dim), Y: make([]int, 0, n)}
}

// N returns the number of samples.
func (d *Dataset) N() int {
	if d.Dim == 0 {
		return 0
	}
	return len(d.X) / d.Dim
}

// Sample returns a slice aliasing the features of sample i.
func (d *Dataset) Sample(i int) []float64 { return d.X[i*d.Dim : (i+1)*d.Dim] }

// AppendClass appends a classification sample. Panics on a wrong feature
// dimension or a label outside [0, NumClasses).
func (d *Dataset) AppendClass(x []float64, label int) {
	if len(x) != d.Dim {
		panic(fmt.Sprintf("data: sample dim %d, dataset dim %d", len(x), d.Dim))
	}
	if label < 0 || label >= d.NumClasses {
		panic(fmt.Sprintf("data: label %d outside [0,%d)", label, d.NumClasses))
	}
	d.X = append(d.X, x...)
	d.Y = append(d.Y, label)
}

// Merge returns a new dataset concatenating all inputs, which must share
// Dim and NumClasses. It is sized once, so every row is copied once; the
// inputs may be views (see Split).
func Merge(parts ...*Dataset) *Dataset {
	if len(parts) == 0 {
		panic("data: Merge of nothing")
	}
	total := 0
	for _, p := range parts {
		if p.Dim != parts[0].Dim || p.NumClasses != parts[0].NumClasses {
			panic("data: Merge shape mismatch")
		}
		total += p.N()
	}
	out := New(parts[0].Dim, parts[0].NumClasses, total)
	for _, p := range parts {
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out
}

// Split randomly partitions the dataset into train/test with the given
// training fraction (the paper uses 0.75). The split is deterministic given
// the seed. It copies nothing: it reorders the receiver's rows in place
// (row i becomes the old row perm[i] of randx.New(seed).Perm(n)) and
// returns its first cut rows as train and the rest as test, both views of
// the receiver. Each view's capacity ends at its last row, so an append to
// either reallocates instead of overwriting the other.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	n := d.N()
	perm := randx.New(seed).Perm(n)
	cut := int(trainFrac * float64(n))
	if cut < 0 {
		cut = 0
	}
	if cut > n {
		cut = n
	}
	// Follow each cycle of perm once, carrying its first row in row; a
	// placed row is marked -1.
	row := make([]float64, d.Dim)
	for s, k := range perm {
		if k < 0 || k == s {
			continue
		}
		copy(row, d.Sample(s))
		y := d.Y[s]
		j := s
		for k != s {
			copy(d.Sample(j), d.Sample(k))
			d.Y[j] = d.Y[k]
			perm[j] = -1
			j, k = k, perm[k]
		}
		copy(d.Sample(j), row)
		d.Y[j] = y
		perm[j] = -1
	}
	return d.view(0, cut), d.view(cut, n)
}

// view returns rows [lo, hi) of d, aliased, with capacity capped at hi.
func (d *Dataset) view(lo, hi int) *Dataset {
	return &Dataset{
		Dim:        d.Dim,
		NumClasses: d.NumClasses,
		X:          d.X[lo*d.Dim : hi*d.Dim : hi*d.Dim],
		Y:          d.Y[lo:hi:hi],
	}
}
