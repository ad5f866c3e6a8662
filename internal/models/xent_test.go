package models

import (
	"fmt"
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
	"fedproxvr/internal/testx"
)

// refXentChunk is the head xentChunk replaced, a row at a time: a
// loss-only pass sums testx.LogSumExp(row) − row[y]; a gradient pass runs
// testx.SoftmaxInPlace on the row, sums its return value less the label
// logit when the loss is wanted, takes 1 from the label entry and scales
// the row by inv.
func refXentChunk(sum float64, z []float64, b, c int, ds *data.Dataset, idx []int, lo int, loss bool, inv float64) float64 {
	for r := 0; r < b; r++ {
		row := z[r*c : (r+1)*c]
		y := chunkLabel(ds, idx, lo, r)
		if inv == 0 {
			sum += testx.LogSumExp(row) - row[y]
			continue
		}
		zy := row[y]
		lse := testx.SoftmaxInPlace(row)
		if loss {
			sum += lse - zy
		}
		row[y] -= 1
		mathx.Scal(inv, row)
	}
	return sum
}

// refLossGrad is Loss (grad == nil) or lossGrad of a Softmax or NNModel
// with refXentChunk as its head: the models' own forward and backward
// passes around the row-at-a-time softmax.
func refLossGrad(model Model, grad, w []float64, ds *data.Dataset, idx []int, loss bool) float64 {
	if grad != nil {
		mathx.Zero(grad)
	}
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	inv := 1 / float64(n)
	if grad == nil {
		loss, inv = true, 0
	}
	var sum, l2 float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		switch m := model.(type) {
		case *Softmax:
			l2 = m.L2
			lm, x := m.forwardChunk(w, ds, idx, lo, b)
			sum = refXentChunk(sum, lm.Data, b, m.Classes, ds, idx, lo, loss, inv)
			if grad != nil {
				nw := m.Classes * m.Features
				m.par.GemmTN(1, lm, x, 1, tensor.MatOf(m.Classes, m.Features, grad[:nw]))
				tensor.ColSumsAcc(grad[nw:], lm)
			}
		case *NNModel:
			l2 = m.L2
			m.workspace()
			out := m.Net.OutSize()
			y := m.Net.ForwardBatch(w, gatherRows(ds, idx, lo, b, m.xbuf), b, m.ws)
			dOut := m.dOut[:b*out]
			copy(dOut, y)
			sum = refXentChunk(sum, dOut, b, out, ds, idx, lo, loss, inv)
			if grad != nil {
				m.Net.BackwardBatch(w, dOut, b, m.ws, grad)
			}
		}
	}
	return sum/float64(n) + addL2(l2, w, grad)
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestXentChunkMatchesRowReference holds xentChunk to the row-at-a-time
// head bit for bit — the returned loss sum and every entry left in z — for
// chunks of 1 to 32 rows over 2, 3, 10 and 11 classes, in its three modes
// (loss only, gradient only, both). Logits are normal, spread wide enough
// that shifted values fall below −708 where the exp kernel hands a group
// to math.Exp, and salted with rows holding −Inf, +Inf or NaN entries and
// rows that are −Inf throughout.
func TestXentChunkMatchesRowReference(t *testing.T) {
	rng := randx.New(38)
	inf := math.Inf(1)
	salts := [][]float64{{math.Inf(-1)}, {inf}, {math.NaN()}, {math.Inf(-1), math.Inf(-1)}, {inf, math.NaN()}}
	modes := []struct {
		loss bool
		inv  float64
	}{{true, 0}, {false, 1.0 / 32}, {true, 1.0 / 7}}
	for _, c := range []int{2, 3, 10, 11} {
		for b := 1; b <= gradChunk; b++ {
			ds := data.New(1, c, b)
			for r := 0; r < b; r++ {
				ds.AppendClass([]float64{0}, rng.Intn(c))
			}
			z := make([]float64, b*c)
			for i := range z {
				z[i] = rng.NormFloat64() * []float64{1, 30, 400}[b%3]
			}
			if b%2 == 0 { // one special row, all of it special when the salt is long
				s := salts[(b/2)%len(salts)]
				r := rng.Intn(b)
				for i := 0; i < c; i++ {
					if i < len(s) || len(s) > 1 {
						z[r*c+i] = s[i%len(s)]
					}
				}
			}
			for _, md := range modes {
				got, want := append([]float64(nil), z...), append([]float64(nil), z...)
				gs := xentChunk(0.25, got, b, c, ds, nil, 0, md.loss, md.inv)
				ws := refXentChunk(0.25, want, b, c, ds, nil, 0, md.loss, md.inv)
				what := fmt.Sprintf("c=%d b=%d loss=%v inv=%v", c, b, md.loss, md.inv)
				sameBits(t, what+" sum", []float64{gs}, []float64{ws})
				if md.inv != 0 {
					sameBits(t, what+" z", got, want)
				}
			}
		}
	}
}

// TestHeadMatchesRowReference holds Loss, Grad and LossGrad of Softmax
// (with and without L2, and with weights large enough that shifted logits
// leave the exp kernel's range) and NNModel (the MLP and the thin paper
// CNN) to the same passes with the row-at-a-time head, bit for bit, at
// sizes around the 32-row chunk, on the whole dataset and on a gathered
// minibatch.
func TestHeadMatchesRowReference(t *testing.T) {
	cases := []struct {
		name  string
		m     Model
		dim   int
		scale float64
	}{
		{"Softmax", NewSoftmax(60, 10, 0), 60, 0.3},
		{"Softmax L2", NewSoftmax(13, 5, 0.05), 13, 0.3},
		{"Softmax wide logits", NewSoftmax(13, 5, 0), 13, 120},
		{"MLP", newMLP(9, 11, 5, 0.02), 9, 0.3},
		{"thin CNN", NewPaperCNN(5, 16, 0.01), 784, 0.3},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 31, 32, 33, 70} {
			rng := randx.New(int64(n))
			ds := data.New(tc.dim, 5, n)
			x := make([]float64, tc.dim)
			for i := 0; i < n; i++ {
				randx.NormalVec(rng, x, 0, 1)
				ds.AppendClass(x, rng.Intn(5))
			}
			w := make([]float64, tc.m.Dim())
			randx.NormalVec(rng, w, 0, tc.scale)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = (i * 7) % n
			}
			what := fmt.Sprintf("%s n=%d", tc.name, n)
			ref := tc.m.Clone()
			for _, sel := range [][]int{nil, idx} {
				loss := tc.m.Loss(w, ds, sel)
				sameBits(t, what+" Loss", []float64{loss}, []float64{refLossGrad(ref, nil, w, ds, sel, true)})
				got, want := make([]float64, len(w)), make([]float64, len(w))
				tc.m.Grad(got, w, ds, sel)
				refLossGrad(ref, want, w, ds, sel, false)
				sameBits(t, what+" Grad", got, want)
			}
			got, want := make([]float64, len(w)), make([]float64, len(w))
			lg := tc.m.LossGrad(got, w, ds)
			wl := refLossGrad(ref, want, w, ds, nil, true)
			sameBits(t, what+" LossGrad loss", []float64{lg}, []float64{wl})
			sameBits(t, what+" LossGrad grad", got, want)
		}
	}
}
