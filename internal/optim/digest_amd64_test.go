package optim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
)

// solveDigests holds Solve's digest: one FNV-64a over the bits of every
// reported iterate and gradient-evaluation count of solveDigest's table.
// The key is {whether the GEMM kernels fuse their multiply-adds (the
// AVX2+FMA kernels do, the scalar fallback does not), whether math.Exp
// takes its FMA path (it does not under GODEBUG=cpu.fma=off)}; a host
// with another pair skips the check. A change that moves any bit of a
// local solve — the estimator update, the proximal step, which iterate is
// reported, or the models' gradients — changes the digest. Regenerate
// only for a deliberate numeric change, and say so.
var solveDigests = map[[2]bool]uint64{
	{true, true}:  0x1ef5fdb895437950,
	{true, false}: 0xed1b3d0a990e1026,
}

// gemmFuses reports whether tensor's GEMM rounds a·b + c once: with
// a = 1+2⁻³⁰ and b = 1−2⁻³⁰, a·b = 1−2⁻⁶⁰ rounds to 1, so a separate
// multiply and add onto c = −1 give 0 and a fused one −2⁻⁶⁰. Four columns
// take the register-tiled kernel where it runs.
func gemmFuses() bool {
	a := tensor.MatOf(1, 1, []float64{1 + 0x1p-30})
	b := tensor.MatOf(1, 4, []float64{1 - 0x1p-30, 1 - 0x1p-30, 1 - 0x1p-30, 1 - 0x1p-30})
	c := tensor.MatOf(1, 4, []float64{-1, -1, -1, -1})
	tensor.GemmNN(a, b, true, c)
	return c.Data[0] != 0
}

// solveCase is one model of solveDigest's table with its shard, anchor and
// line 4's gradient at the anchor.
type solveCase struct {
	m          models.Model
	ds         *data.Dataset
	anchor, v0 []float64
	batch      int
}

func solveCases() []solveCase {
	rng := randx.New(58)
	shard := func(d, c, n int, pixel func() float64) *data.Dataset {
		ds := data.New(d, c, n)
		x := make([]float64, d)
		for s := 0; s < n; s++ {
			for j := range x {
				x[j] = pixel()
			}
			ds.AppendClass(x, rng.Intn(c))
		}
		return ds
	}
	image := func() float64 {
		if rng.Float64() < 0.6 {
			return 0
		}
		return rng.Float64()
	}
	cases := []solveCase{
		{m: models.NewSoftmax(13, 5), ds: shard(13, 5, 37, rng.NormFloat64), batch: 5},
		{m: models.NewPaperCNN(10, 8), ds: shard(784, 10, 6, image), batch: 2},
	}
	for i := range cases {
		c := &cases[i]
		c.anchor = make([]float64, c.m.Dim())
		randx.NormalVec(rng, c.anchor, 0, 0.3)
		c.v0 = make([]float64, c.m.Dim())
		c.m.Grad(c.v0, c.anchor, c.ds, nil)
	}
	return cases
}

// solveDigest runs the table — SGD, SVRG and SARAH × ReturnLast and
// ReturnRandom × μ ∈ {0, 0.1} × line 4's gradient handed over or not ×
// τ ∈ {0, 1, 3} — passes times over on each case, and returns per pass
// one hash of every solve's reported iterate and evaluation count. With
// reuse every solve of a case shares one Scratch; otherwise each gets a
// fresh one. The hashes are taken once every pass has run, and every out
// starts as NaNs, so an element a solve leaves unwritten, or writes after
// it has returned, shows.
func solveDigest(cases []solveCase, reuse bool, passes int) []uint64 {
	type result struct {
		out   []float64
		evals int
	}
	results := make([][]result, passes)
	for _, c := range cases {
		solver, shared := NewSolver(c.m), new(Scratch)
		for pass := range results {
			k := 0
			for _, est := range []Estimator{SGD, SVRG, SARAH} {
				for _, ret := range []ReturnPolicy{ReturnLast, ReturnRandom} {
					for _, mu := range []float64{0, 0.1} {
						for _, v0 := range [][]float64{nil, c.v0} {
							for _, tau := range []int{0, 1, 3} {
								s := shared
								if !reuse {
									s = new(Scratch)
								}
								out := make([]float64, c.m.Dim())
								for i := range out {
									out[i] = math.NaN()
								}
								cfg := LocalConfig{Estimator: est, Eta: 0.05, Tau: tau, Batch: c.batch, Mu: mu, Return: ret}
								k++
								n := solver.Solve(s, c.ds, c.anchor, out, cfg, randx.New(int64(k)), v0)
								results[pass] = append(results[pass], result{out, n})
							}
						}
					}
				}
			}
		}
	}
	sums := make([]uint64, passes)
	var buf [8]byte
	for pass, rs := range results {
		h := fnv.New64a()
		for _, r := range rs {
			for _, v := range r.out {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(r.evals))
			h.Write(buf[:])
		}
		sums[pass] = h.Sum64()
	}
	return sums
}

// TestSolveDigest pins the bits of every local solve: the table on fresh
// scratches, and twice over on one reused scratch per model, each pass
// with the fresh digest — so neither the buffers a solve swaps nor a
// caller's out, kept past the solve, can carry one solve into the next.
func TestSolveDigest(t *testing.T) {
	// TestExpKernelGate's probe: math.Exp rounds this argument differently
	// on and off its FMA path.
	expFMA := math.Float64bits(math.Exp(-1.1057467696506076)) == 0x3fd52e821a8ec2c5
	key := [2]bool{gemmFuses(), expFMA}
	want, ok := solveDigests[key]
	if !ok {
		t.Skipf("no digest recorded for GEMM fusion and math.Exp FMA %v", key)
	}
	cases := solveCases()
	fresh := solveDigest(cases, false, 1)[0]
	for pass, got := range solveDigest(cases, true, 2) {
		if got != fresh {
			t.Fatalf("solve digest %#x on fresh scratches, %#x on pass %d over a reused one: a solve depends on the one before", fresh, got, pass+1)
		}
	}
	if fresh != want {
		t.Fatalf("solve digest %#x, want %#x: a result bit moved", fresh, want)
	}
}
