package tensor_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
)

// softmaxDigests holds the convex model's digests, keyed and laid out like
// paperCNNDigests: one FNV-64a over the bits of every Loss, Grad, LossGrad
// and PredictBatch result of softmaxDigest's table, on the AVX2+FMA
// kernels ([0]) and on the scalar fallback ([1]), with math.Exp on its FMA
// path (true) or off it. A change that moves any result bit of Softmax
// (its logits GEMM, the bias, the softmax head, the weight and bias
// gradients or the argmax) changes a digest. On the scalar fallback every
// NaN is hashed as one value: which payload a Go add keeps when both
// operands are NaNs is the compiler's choice there, and a -race build
// chooses differently in the GEMM's Go loops. Regenerate only for a
// deliberate numeric change, and say so.
var softmaxDigests = map[bool][2]uint64{
	true:  {0x174e91e12b8cdcba, 0x15c9adb06e63bf46},
	false: {0xabe8737d2b3e96bb, 0x087cc10d7e657605},
}

// softmaxNaN is a quiet NaN with a payload other than math.NaN()'s, so two
// NaN inputs of one row carry different bits.
var softmaxNaN = math.Float64frombits(0xfff8000000000123)

// softmaxDigest runs the table: Softmax at 60×10 and 784×10 (the convex
// workloads' shapes) and 13×5 with weights of scale 120, so shifted logits
// leave the exp kernel's range; n ∈ {1, 3, 4, 5, 8, 16, 31, 32, 33, 70}
// rows, so every n % 4 and more than one 32-row chunk appear;
// and, per shape, one 33-row shard whose inputs hold ±Inf and two NaN
// payloads (the weights stay finite). Each shard is evaluated whole
// (Loss, LossGrad, PredictBatch) and through a drawn index list with
// repeats (Loss, Grad). With canonNaN every NaN result is hashed as
// math.NaN().
func softmaxDigest(canonNaN bool) uint64 {
	h := fnv.New64a()
	hash := func(vs ...float64) {
		for _, v := range vs {
			if canonNaN && v != v {
				v = math.NaN()
			}
			hashFloats(h, v)
		}
	}
	shapes := []struct {
		d, c  int
		scale float64
	}{{60, 10, 0.3}, {784, 10, 0.3}, {13, 5, 120}}
	for si, sh := range shapes {
		m := models.NewSoftmax(sh.d, sh.c)
		rng := randx.New(int64(43 + si))
		w := make([]float64, m.Dim())
		randx.NormalVec(rng, w, 0, sh.scale)
		for _, n := range []int{1, 3, 4, 5, 8, 16, 31, 32, 33, 70, -33} {
			ds := softmaxShard(rng, sh.d, sh.c, n)
			n = ds.N()
			hash(m.Loss(w, ds, nil))
			grad := make([]float64, m.Dim())
			hash(m.LossGrad(grad, w, ds))
			hash(grad...)
			pred := make([]int, n)
			m.PredictBatch(pred, w, ds, 0, n)
			for _, p := range pred {
				hash(float64(p))
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			m.Grad(grad, w, ds, idx)
			hash(grad...)
			hash(m.Loss(w, ds, idx))
		}
	}
	return h.Sum64()
}

// softmaxShard draws |n| labelled samples of standard normal inputs; a
// negative n salts sample s with s % 4 inputs drawn from +Inf, −Inf,
// math.NaN() and softmaxNaN, so its rows carry finite, infinite and NaN
// logits.
func softmaxShard(rng *rand.Rand, d, c, n int) *data.Dataset {
	salt := n < 0
	if salt {
		n = -n
	}
	ds := data.New(d, c, n)
	x := make([]float64, d)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), softmaxNaN}
	for s := 0; s < n; s++ {
		randx.NormalVec(rng, x, 0, 1)
		if salt {
			for k := 0; k < s%4; k++ {
				x[rng.Intn(d)] = special[rng.Intn(len(special))]
			}
		}
		ds.AppendClass(x, rng.Intn(c))
	}
	return ds
}

// TestSoftmaxDigest pins the convex model's result bits on both kernel
// sets. The AVX2 digest is checked only where the AVX2+FMA kernels run.
func TestSoftmaxDigest(t *testing.T) {
	want := softmaxDigests[math.Float64bits(math.Exp(-1.1057467696506076)) == 0x3fd52e821a8ec2c5]
	t.Run("AVX2", func(t *testing.T) {
		if !tensor.SIMDEnabled() {
			t.Skip("AVX2+FMA kernels are off on this CPU")
		}
		if got := softmaxDigest(false); got != want[0] {
			t.Fatalf("softmax digest %#x, want %#x: a result bit moved", got, want[0])
		}
	})
	t.Run("Scalar", func(t *testing.T) {
		tensor.WithScalarKernels(t)
		if got := softmaxDigest(true); got != want[1] {
			t.Fatalf("softmax digest on the scalar kernels %#x, want %#x: a result bit moved", got, want[1])
		}
	})
}

// TestSoftmaxGradIgnoresStaleBuffer: Grad and LossGrad overwrite their
// gradient buffer — the weight part is the first chunk's GEMM store — so a
// buffer full of NaNs and infinities gives the bits a zeroed one does, for
// every n in {0, 1, 31, 32, 33, 70} rows, through an index list and over
// the whole shard, on both kernel sets. TestSoftmaxDigest cannot see this:
// it hands LossGrad a fresh buffer every time.
func TestSoftmaxGradIgnoresStaleBuffer(t *testing.T) {
	run := func(t *testing.T) {
		stale := []float64{math.NaN(), math.Inf(1), math.Inf(-1), softmaxNaN}
		for si, sh := range []struct{ d, c int }{{60, 10}, {784, 10}, {13, 5}} {
			m := models.NewSoftmax(sh.d, sh.c)
			rng := randx.New(int64(58 + si))
			w := make([]float64, m.Dim())
			randx.NormalVec(rng, w, 0, 0.3)
			for _, n := range []int{0, 1, 31, 32, 33, 70} {
				ds := softmaxShard(rng, sh.d, sh.c, n)
				idx := make([]int, n)
				for i := range idx {
					idx[i] = rng.Intn(n)
				}
				for _, call := range []struct {
					name string
					f    func(grad []float64) float64
				}{
					{"Grad", func(grad []float64) float64 { m.Grad(grad, w, ds, nil); return 0 }},
					{"Grad(idx)", func(grad []float64) float64 { m.Grad(grad, w, ds, idx); return 0 }},
					{"LossGrad", func(grad []float64) float64 { return m.LossGrad(grad, w, ds) }},
				} {
					clean := make([]float64, m.Dim())
					dirty := make([]float64, m.Dim())
					for i := range dirty {
						dirty[i] = stale[i%len(stale)]
					}
					lc, ld := call.f(clean), call.f(dirty)
					if math.Float64bits(lc) != math.Float64bits(ld) {
						t.Fatalf("%dx%d n=%d %s: loss %v into a zeroed buffer, %v into a stale one", sh.d, sh.c, n, call.name, lc, ld)
					}
					for i := range clean {
						if math.Float64bits(clean[i]) != math.Float64bits(dirty[i]) {
							t.Fatalf("%dx%d n=%d %s: grad[%d] is %v into a zeroed buffer, %v into a stale one", sh.d, sh.c, n, call.name, i, clean[i], dirty[i])
						}
					}
				}
			}
		}
	}
	t.Run("AVX2", func(t *testing.T) {
		if !tensor.SIMDEnabled() {
			t.Skip("AVX2+FMA kernels are off on this CPU")
		}
		run(t)
	})
	t.Run("Scalar", func(t *testing.T) {
		tensor.WithScalarKernels(t)
		run(t)
	})
}
