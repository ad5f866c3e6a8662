package tensor_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
)

// paperCNNDigests holds the paper CNN's digests: one FNV-64a over the bits
// of every LossGrad, PredictBatch, Grad and Loss result of
// paperCNNDigest's table, on the AVX2+FMA kernels ([0]) and on the scalar
// fallback ([1]). The key is whether math.Exp, which the softmax head
// calls, takes its FMA path: it does not under GODEBUG=cpu.fma=off or on
// a CPU without FMA, and rounds differently there. A change that moves
// any result bit of the CNN (its convolutions, the fused ReLU + max-pool,
// the dense head or the softmax) changes a digest; a change that must
// keep the bits must keep them all. Regenerate only for a deliberate
// numeric change, and say so.
var paperCNNDigests = map[bool][2]uint64{
	true:  {0x9a84efbc1a50d01d, 0xcd15b69c14fbef88},
	false: {0x696a516bbaa2e1fd, 0xd73345b89d44a275},
}

// paperCNNWideDigests are paperCNNDigests for the paper's own width
// (divisor 1: conv2 takes 32 channels to 64) at batch sizes 1, 3 and 8, the
// shape at which conv2's GEMMs are 64×800×196 and 800×64×196.
var paperCNNWideDigests = map[bool][2]uint64{
	true:  {0x28e484c23df19d9f, 0x80c0e43352bf6767},
	false: {0x1b4e2452399193cc, 0x79b4537b03cbe0d6},
}

// paperCNNDigest runs the table: the paper CNN at each width divisor in
// divs; normal inputs, image-like inputs with about 60 % exact zeros, and
// the image-like inputs again with a quarter of the parameters exactly
// zero; each batch size in batches. Each batch is a dataset of b samples
// evaluated whole (LossGrad, PredictBatch) and through a drawn index list
// with repeats (Grad, Loss). LossGrad is Grad's gradient and Loss's value
// bit for bit (models' LossGrad tests), so the whole-dataset Grad and Loss
// are not run again.
func paperCNNDigest(divs, batches []int) uint64 {
	h := fnv.New64a()
	for _, div := range divs {
		m := models.NewPaperCNN(10, div)
		for kind := 0; kind < 3; kind++ {
			rng := randx.New(int64(100*div + kind))
			w := make([]float64, m.Dim())
			randx.NormalVec(rng, w, 0, 0.3)
			if kind == 2 {
				for i := range w {
					if rng.Intn(4) == 0 {
						w[i] = 0
					}
				}
			}
			for _, b := range batches {
				ds := digestBatch(rng, b, kind > 0)
				grad := make([]float64, m.Dim())
				hashFloats(h, m.LossGrad(grad, w, ds))
				hashFloats(h, grad...)
				pred := make([]int, b)
				m.PredictBatch(pred, w, ds, 0, b)
				for _, p := range pred {
					hashFloats(h, float64(p))
				}
				idx := make([]int, b)
				for i := range idx {
					idx[i] = rng.Intn(b)
				}
				m.Grad(grad, w, ds, idx)
				hashFloats(h, grad...)
				hashFloats(h, m.Loss(w, ds, idx))
			}
		}
	}
	return h.Sum64()
}

// digestBatch draws b labelled 28×28 samples: standard normal pixels, or
// image-like ones, each pixel exactly 0 with probability 0.6 and uniform in
// [0, 1) otherwise.
func digestBatch(rng *rand.Rand, b int, imageLike bool) *data.Dataset {
	ds := data.New(784, 10, b)
	x := make([]float64, 784)
	for s := 0; s < b; s++ {
		for j := range x {
			switch {
			case !imageLike:
				x[j] = rng.NormFloat64()
			case rng.Float64() < 0.6:
				x[j] = 0
			default:
				x[j] = rng.Float64()
			}
		}
		ds.AppendClass(x, rng.Intn(10))
	}
	return ds
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestPaperCNNDigest pins the paper CNN's result bits on both kernel sets,
// thinned (divisors 8 and 4) and at the paper's width (Wide). The AVX2
// digests are checked only where the AVX2+FMA kernels run.
func TestPaperCNNDigest(t *testing.T) {
	// TestExpKernelGate's probe: math.Exp rounds this argument differently
	// on and off its FMA path.
	fma := math.Float64bits(math.Exp(-1.1057467696506076)) == 0x3fd52e821a8ec2c5
	for _, tc := range []struct {
		name          string
		divs, batches []int
		want          [2]uint64
	}{
		{"", []int{8, 4}, []int{1, 3, 8, 16, 48}, paperCNNDigests[fma]},
		{"Wide", []int{1}, []int{1, 3, 8}, paperCNNWideDigests[fma]},
	} {
		t.Run("AVX2"+tc.name, func(t *testing.T) {
			if !tensor.SIMDEnabled() {
				t.Skip("AVX2+FMA kernels are off on this CPU")
			}
			if got := paperCNNDigest(tc.divs, tc.batches); got != tc.want[0] {
				t.Fatalf("paper CNN digest %#x, want %#x: a result bit moved", got, tc.want[0])
			}
		})
		t.Run("Scalar"+tc.name, func(t *testing.T) {
			tensor.WithScalarKernels(t)
			if got := paperCNNDigest(tc.divs, tc.batches); got != tc.want[1] {
				t.Fatalf("paper CNN digest on the scalar kernels %#x, want %#x: a result bit moved", got, tc.want[1])
			}
		})
	}
}
