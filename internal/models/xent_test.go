package models

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
	"fedproxvr/internal/testx"
)

// refXentChunk is the row-at-a-time head over sample-major logits (b rows
// of c): a loss-only pass sums testx.LogSumExp(row) − row[y]; a gradient
// pass runs testx.SoftmaxInPlace on the row, sums its return value less
// the label logit when the loss is wanted, takes 1 from the label entry
// and scales the row by inv. The sum keeps its own NaN before a term's.
func refXentChunk(sum float64, z []float64, b, c int, ds *data.Dataset, idx []int, lo int, loss bool, inv float64) float64 {
	for r := 0; r < b; r++ {
		row := z[r*c : (r+1)*c]
		y := chunkLabel(ds, idx, lo, r)
		if inv == 0 {
			sum = testx.AddNaNFirst(sum, testx.LogSumExp(row)-row[y])
			continue
		}
		zy := row[y]
		lse := testx.SoftmaxInPlace(row)
		if loss {
			sum = testx.AddNaNFirst(sum, lse-zy)
		}
		row[y] -= 1
		mathx.Scal(inv, row)
	}
	return sum
}

// refLossGrad is Loss (grad == nil) or lossGrad of a Softmax or NNModel
// with refXentChunk as its head, built in the sample-major layout the
// class-major head replaced: for Softmax, logits = X·Wᵀ by GemmNTRows, the bias
// by AddRowVec, dW += Pᵀ·X by GemmTN and the bias gradient by ColSumsAcc;
// for NNModel, the network's own forward and backward around a copy of its
// output.
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
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		switch m := model.(type) {
		case *Softmax:
			nw := m.Classes * m.Features
			x := tensor.MatOf(b, m.Features, gatherRows(ds, idx, lo, b, m.xbuf))
			lm := tensor.MatOf(b, m.Classes, make([]float64, b*m.Classes))
			tensor.GemmNTRows(1, x, tensor.MatOf(m.Classes, m.Features, w[:nw]), 0, lm, 0, b)
			tensor.AddRowVec(lm, w[nw:])
			sum = refXentChunk(sum, lm.Data, b, m.Classes, ds, idx, lo, loss, inv)
			if grad != nil {
				tensor.GemmTN(1, lm, x, 1, tensor.MatOf(m.Classes, m.Features, grad[:nw]))
				tensor.ColSumsAcc(grad[nw:], lm)
			}
		case *NNModel:
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
	return sum / float64(n)
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

// headMode is one way the models call the head: loss only, gradient only,
// or both.
type headMode struct {
	loss bool
	inv  float64
}

var headModes = []headMode{{true, 0}, {false, 1.0 / 32}, {true, 1.0 / 7}}

// checkHead runs softmaxHead on the sample-major logits z (b rows of c,
// labels from ds) through an element-by-element transpose, and
// refXentChunk on a copy of z, and fails t unless the loss sums agree bit
// for bit and, in a gradient mode, so does every gradient entry and every
// bias-gradient entry (the reference's the column sums of its gradient
// rows, each added as p + db[j], both onto the same starting values).
func checkHead(t testing.TB, what string, z []float64, b, c int, ds *data.Dataset, md headMode) {
	t.Helper()
	zt := make([]float64, b*c)
	for r := 0; r < b; r++ {
		for j := 0; j < c; j++ {
			zt[j*b+r] = z[r*c+j]
		}
	}
	want := append([]float64(nil), z...)
	db := []float64{0.5, -0.25, 0, 3, math.Copysign(0, -1), 1, -1, 2, 0.125, 7, -3}[:c]
	wantDB := append([]float64(nil), db...)
	gs := softmaxHead(0.25, zt, b, c, ds, nil, 0, md.loss, md.inv, db)
	ws := refXentChunk(0.25, want, b, c, ds, nil, 0, md.loss, md.inv)
	if math.Float64bits(gs) != math.Float64bits(ws) {
		t.Fatalf("%s: loss sum %v (%#x), reference %v (%#x)", what, gs, math.Float64bits(gs), ws, math.Float64bits(ws))
	}
	if md.inv == 0 {
		return
	}
	got := make([]float64, b*c)
	for r := 0; r < b; r++ {
		for j := 0; j < c; j++ {
			got[r*c+j] = zt[j*b+r]
		}
	}
	for i, p := range want {
		wantDB[i%c] = testx.AddNaNFirst(p, wantDB[i%c])
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: gradient of sample %d class %d = %v (%#x), reference %v (%#x)", what, i/c, i%c,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for j := range db {
		if math.Float64bits(db[j]) != math.Float64bits(wantDB[j]) {
			t.Fatalf("%s: bias gradient %d = %v (%#x), reference %v (%#x)", what, j,
				db[j], math.Float64bits(db[j]), wantDB[j], math.Float64bits(wantDB[j]))
		}
	}
}

// TestSoftmaxHeadMatchesRowReference holds the class-major head to the
// row-at-a-time head bit for bit — the returned loss sum, every gradient
// entry and the bias gradient — for chunks of 1 to 32 samples (every
// b % 4, so the kernels' Go tail lanes carry labels too) over 2, 3, 10 and
// 11 classes, in its three modes (loss only, gradient only, both). Logits
// are normal, spread wide enough that shifted values fall below −708 where
// the exp kernel hands a group to math.Exp, and salted with samples
// holding −Inf, +Inf or NaN entries, two NaNs of different payloads, a
// maximum tied between −0 and +0, and samples that are −Inf throughout.
func TestSoftmaxHeadMatchesRowReference(t *testing.T) {
	rng := randx.New(38)
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0xfff8000000000123)
	salts := [][]float64{
		{math.Inf(-1)}, {inf}, {math.NaN()}, {math.Inf(-1), math.Inf(-1)}, {inf, math.NaN()},
		{math.NaN(), -1, otherNaN, -2}, {negZero, 0}, {0, negZero},
	}
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
			// Two special samples, one of them the last (a tail lane when
			// b % 4 != 0); a salt of two is repeated over the whole sample,
			// a longer one laid over its start.
			for k, r := range []int{rng.Intn(b), b - 1} {
				s := salts[(b+k*3)%len(salts)]
				for i := 0; i < c; i++ {
					switch {
					case len(s) == 2:
						z[r*c+i] = s[i%2]
					case i < len(s):
						z[r*c+i] = s[i]
					}
				}
			}
			for _, md := range headModes {
				checkHead(t, fmt.Sprintf("c=%d b=%d loss=%v inv=%v", c, b, md.loss, md.inv), z, b, c, ds, md)
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
		{"Softmax", NewSoftmax(60, 10), 60, 0.3},
		{"Softmax wide logits", NewSoftmax(13, 5), 13, 120},
		{"MLP", newMLP(9, 11, 5), 9, 0.3},
		{"thin CNN", NewPaperCNN(5, 16), 784, 0.3},
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

// headFuzzBytes packs float64s little-endian, the encoding FuzzSoftmaxHead
// reads its logits from.
func headFuzzBytes(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzSoftmaxHead holds the class-major head to the row-at-a-time
// reference on arbitrary logit bits: b = 1 + b%32 samples (a chunk is at
// most 32) of c = 2 + c%10 classes, their logits read from bits
// (repeated to length), labels from labels (repeated), and inv = 1/n, or
// the loss-only mode at n = 0. The loss sum, every gradient entry and the
// bias gradient must be the reference's bits (checkHead). The seeds cover
// NaNs of different payloads and signalling NaNs, ±Inf, ±0 ties at the
// maximum, samples −Inf throughout and logits past the exp kernel's range.
func FuzzSoftmaxHead(f *testing.F) {
	nan2 := math.Float64frombits(0xfff8000000000123)
	snan := math.Float64frombits(0x7ff0000000000042)
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	f.Add(headFuzzBytes(0.5, -1.25, 3, 0.125, -7, 2.5, 1, -0.5), uint8(3), uint8(8), []byte{1, 7, 3, 0}, uint16(32), true)
	f.Add(headFuzzBytes(math.NaN(), 1, nan2, -2, snan, 0.25), uint8(8), uint8(4), []byte{0, 1, 2, 3, 1}, uint16(7), true)
	f.Add(headFuzzBytes(negZero, 0, -3, 0, negZero, -1), uint8(5), uint8(1), []byte{1, 0, 0}, uint16(1), false)
	f.Add(headFuzzBytes(math.Inf(-1)), uint8(6), uint8(9), []byte{4}, uint16(0), true)
	f.Add(headFuzzBytes(inf, math.NaN(), math.Inf(-1), 800, -800, 709.9, -745.5), uint8(12), uint8(9), []byte{10, 2, 5}, uint16(3), true)
	f.Add(headFuzzBytes(1e300, -1e300, 5e-324, -5e-324, 2), uint8(31), uint8(0), []byte{0}, uint16(33), false)
	f.Fuzz(func(t *testing.T, bits []byte, b, c uint8, labels []byte, n uint16, loss bool) {
		nb, nc := 1+int(b)%gradChunk, 2+int(c)%10
		z := make([]float64, nb*nc)
		if len(bits) >= 8 {
			for i := range z {
				k := 8 * (i % (len(bits) / 8))
				z[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits[k:]))
			}
		}
		ds := data.New(1, nc, nb)
		for r := 0; r < nb; r++ {
			y := 0
			if len(labels) > 0 {
				y = int(labels[r%len(labels)]) % nc
			}
			ds.AppendClass([]float64{0}, y)
		}
		md := headMode{loss: loss}
		if n == 0 {
			md.loss = true
		} else {
			md.inv = 1 / float64(n)
		}
		checkHead(t, fmt.Sprintf("b=%d c=%d", nb, nc), z, nb, nc, ds, md)
	})
}
