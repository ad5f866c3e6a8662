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
	true:  {0xd207c5ce5c5f1c40, 0x1c25bdcbdf06f787},
	false: {0x70421c8907417436, 0x58bb9c8f60f26c81},
}

// softmaxNaN is a quiet NaN with a payload other than math.NaN()'s, so two
// NaN inputs of one row carry different bits.
var softmaxNaN = math.Float64frombits(0xfff8000000000123)

// softmaxDigest runs the table: Softmax at 60×10 and 784×10 (the convex
// workloads' shapes), 13×5 with L2, and 13×5 with weights of scale 120, so
// shifted logits leave the exp kernel's range; n ∈ {1, 3, 4, 5, 8, 16, 31,
// 32, 33, 70} rows, so every n % 4 and more than one 32-row chunk appear;
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
		d, c      int
		l2, scale float64
	}{{60, 10, 0, 0.3}, {784, 10, 0, 0.3}, {13, 5, 0.05, 0.3}, {13, 5, 0, 120}}
	for si, sh := range shapes {
		m := models.NewSoftmax(sh.d, sh.c, sh.l2)
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
