package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// first returns x op y as an x86 instruction with x as its first source
// computes it: x quieted where x is a NaN, else y quieted where y is, else
// the IEEE result. It is the step kernels' oracle, written from the
// instruction set's rule rather than from nanFirstAdd or a compiled loop.
func first(op byte, x, y float64) float64 {
	quiet := func(z float64) float64 { return math.Float64frombits(math.Float64bits(z) | 1<<51) }
	switch {
	case x != x:
		return quiet(x)
	case y != y:
		return quiet(y)
	}
	switch op {
	case '+':
		return x + y
	case '-':
		return x - y
	case '*':
		return float64(x * y)
	}
	panic("first: unknown op")
}

// refStep is the proximal step's oracle: x = v·Neg + w, then, unless Id,
// (x + a·Em)·Inv, each operation with its left operand as first source —
// the roles of the compiled optim loop these kernels replaced
// (MULSD v, −η; ADDSD product, w; …).
func refStep(c StepCoef, w, v, a float64) float64 {
	x := first('+', first('*', v, c.Neg), w)
	if c.Id {
		return x
	}
	return first('*', first('+', x, first('*', a, c.Em)), c.Inv)
}

// stepSpecials are the values the step tests draw operands and
// coefficients from, besides normal ones: ±0, ±Inf, and NaNs of distinct
// payloads and signs, a signalling one included.
var stepSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7ff8_0000_0000_0123),
	math.Float64frombits(0xfff8_0000_0000_4567),
	math.Float64frombits(0x7ff4_0000_0000_0089), // signalling
}

// stepBufs hands out sub-slices of length n at a random offset into a
// larger buffer whose other elements are guards, so a kernel that reads
// or writes outside its slices, or loses alignment, shows.
type stepBufs struct {
	rng     *rand.Rand
	special bool // draw specials as well as normal values
}

const stepGuard = 12345.678

func (s stepBufs) value() float64 {
	if s.special && s.rng.Intn(2) == 0 {
		return stepSpecials[s.rng.Intn(len(stepSpecials))]
	}
	return s.rng.NormFloat64()
}

// vec returns a fresh length-n slice inside a guarded buffer and the buffer.
func (s stepBufs) vec(n int) (v, buf []float64) {
	off := s.rng.Intn(4)
	buf = make([]float64, off+n+4)
	for i := range buf {
		buf[i] = stepGuard
	}
	v = buf[off : off+n]
	for i := range v {
		v[i] = s.value()
	}
	return v, buf
}

func (s stepBufs) coef(id bool) StepCoef {
	c := StepCoef{Neg: -math.Abs(s.rng.NormFloat64()), Em: math.Abs(s.rng.NormFloat64()), Id: id}
	if s.special && s.rng.Intn(4) == 0 {
		c.Neg = s.value()
	}
	if s.special && s.rng.Intn(4) == 0 {
		c.Em = s.value()
	}
	c.Inv = 1 / (1 + c.Em)
	if s.special && s.rng.Intn(4) == 0 {
		c.Inv = s.value()
	}
	return c
}

// checkGuards fails where buf holds anything but v's elements and guards.
func checkGuards(t *testing.T, what string, v, buf []float64) {
	t.Helper()
	off := cap(buf) - cap(v)
	for i, x := range buf {
		if (i < off || i >= off+len(v)) && x != stepGuard {
			t.Errorf("%s: element %d outside the slice was written (%v)", what, i-off, x)
			return
		}
	}
}

func sameStepBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: element %d is %#x (%v), want %#x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			return
		}
	}
}

// TestProxStepMatchesOracle holds ProxStep to refStep bit for bit on both
// kernel sets: every length from 0 to 19 at random offsets, μ = 0 and
// μ > 0, normal operands and specials in every operand and coefficient,
// and dst apart from, equal to w and equal to v.
func TestProxStepMatchesOracle(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for _, special := range []bool{false, true} {
			s := stepBufs{rng, special}
			for n := 0; n < 20; n++ {
				for _, id := range []bool{false, true} {
					for _, alias := range []string{"apart", "dst=w", "dst=v"} {
						for rep := 0; rep < 4; rep++ {
							c := s.coef(id)
							w, wb := s.vec(n)
							v, vb := s.vec(n)
							a, ab := s.vec(n)
							dst, db := s.vec(n)
							want := make([]float64, n)
							for i := range want {
								want[i] = refStep(c, w[i], v[i], a[i])
							}
							switch alias {
							case "dst=w":
								dst, db = w, wb
							case "dst=v":
								dst, db = v, vb
							}
							ProxStep(c, dst, w, v, a)
							what := fmt.Sprintf("n=%d id=%v %s specials=%v", n, id, alias, special)
							sameStepBits(t, what, dst, want)
							for _, g := range []struct{ v, b []float64 }{{w, wb}, {v, vb}, {a, ab}, {dst, db}} {
								checkGuards(t, what, g.v, g.b)
							}
						}
					}
				}
			}
		}
	})
}

// TestVRStepMatchesOracle holds VRStep to the oracle u = (g1 − g2) + base
// then refStep, bit for bit, on both kernel sets, over every length from
// 0 to 19 at random offsets, μ = 0 and μ > 0, the direction stored and
// not (a nil v, which must leave v's buffer alone), specials in every
// operand and coefficient, and the solver's aliasing: dst = w (SVRG's and
// SGD's steps) and base = v (SARAH's).
func TestVRStepMatchesOracle(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(60))
		for _, special := range []bool{false, true} {
			s := stepBufs{rng, special}
			for n := 0; n < 20; n++ {
				for _, id := range []bool{false, true} {
					for _, store := range []bool{false, true} {
						for _, alias := range []string{"apart", "dst=w", "base=v", "dst=w base=v"} {
							c := s.coef(id)
							w, wb := s.vec(n)
							v, vb := s.vec(n)
							g1, g1b := s.vec(n)
							g2, g2b := s.vec(n)
							base, bb := s.vec(n)
							a, ab := s.vec(n)
							dst, db := s.vec(n)
							if alias == "dst=w" || alias == "dst=w base=v" {
								dst, db = w, wb
							}
							if alias == "base=v" || alias == "dst=w base=v" {
								base, bb = v, vb
							}
							u := make([]float64, n)
							want := make([]float64, n)
							for i := range want {
								u[i] = first('+', first('-', g1[i], g2[i]), base[i])
								want[i] = refStep(c, w[i], u[i], a[i])
							}
							vOld := append([]float64(nil), v...)
							vArg := v
							if !store {
								vArg = nil
							}
							VRStep(c, dst, w, vArg, g1, g2, base, a)
							what := fmt.Sprintf("n=%d id=%v store=%v %s specials=%v", n, id, store, alias, special)
							sameStepBits(t, what+" dst", dst, want)
							if store {
								sameStepBits(t, what+" v", v, u)
							} else {
								sameStepBits(t, what+" v (not stored)", v, vOld)
							}
							for _, g := range []struct{ v, b []float64 }{{w, wb}, {v, vb}, {g1, g1b}, {g2, g2b}, {base, bb}, {a, ab}, {dst, db}} {
								checkGuards(t, what, g.v, g.b)
							}
						}
					}
				}
			}
		}
	})
}

// TestAxpyMatchesOracle holds Axpy to y = x·a + y, each operation with
// its left operand as first source (the compiled y[i] += a*x[i]'s roles),
// bit for bit on both kernel sets, over every length from 0 to 19 at
// random offsets, with specials in x, y and a.
func TestAxpyMatchesOracle(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		for _, special := range []bool{false, true} {
			s := stepBufs{rng, special}
			for n := 0; n < 20; n++ {
				for rep := 0; rep < 8; rep++ {
					a := s.value()
					x, xb := s.vec(n)
					y, yb := s.vec(n)
					want := make([]float64, n)
					for i := range want {
						want[i] = first('+', first('*', x[i], a), y[i])
					}
					Axpy(a, x, y)
					what := fmt.Sprintf("n=%d a=%v specials=%v", n, a, special)
					sameStepBits(t, what, y, want)
					checkGuards(t, what, x, xb)
					checkGuards(t, what, y, yb)
				}
			}
		}
	})
}

// TestStepOracleRoles pins the oracle's operand roles themselves: where
// both operands are NaNs the first one's payload survives, quieted.
func TestStepOracleRoles(t *testing.T) {
	p := math.Float64frombits(0x7ff8_0000_0000_0123)
	q := math.Float64frombits(0xfff4_0000_0000_4567)
	for _, op := range []byte{'+', '-', '*'} {
		if got := math.Float64bits(first(op, p, q)); got != 0x7ff8_0000_0000_0123 {
			t.Errorf("%c: first(p, q) = %#x, want p's payload", op, got)
		}
		if got := math.Float64bits(first(op, q, p)); got != 0xfffc_0000_0000_4567 {
			t.Errorf("%c: first(q, p) = %#x, want q's payload quieted", op, got)
		}
		if got := math.Float64bits(first(op, 1, q)); got != 0xfffc_0000_0000_4567 {
			t.Errorf("%c: first(1, q) = %#x, want q's payload quieted", op, got)
		}
	}
}

// The step benchmarks run at the two softmax dimensions the benchmark
// workloads train: 7850 (tcp8_*) and 610 (convex100).

func stepBenchVecs(n, k int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	vs := make([][]float64, k)
	for j := range vs {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			vs[j][i] = rng.NormFloat64()
		}
	}
	return vs
}

var benchCoef = StepCoef{Neg: -0.002, Em: 0.0002, Inv: 1 / 1.0002}

// benchVRStep times one SARAH step of the inner loop (t < τ): the
// direction stored over its base, μ > 0.
func benchVRStep(b *testing.B, n int) {
	vs := stepBenchVecs(n, 6)
	w, dst, v, g1, g2, a := vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VRStep(benchCoef, dst, w, v, g1, g2, v, a)
	}
}

func benchProxStep(b *testing.B, n int) {
	vs := stepBenchVecs(n, 4)
	w, dst, v, a := vs[0], vs[1], vs[2], vs[3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProxStep(benchCoef, dst, w, v, a)
	}
}

func benchAxpy(b *testing.B, n int) {
	vs := stepBenchVecs(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1e-9, vs[0], vs[1])
	}
}

// BenchmarkVRStep7850 is one SARAH inner step of a tcp8 worker.
func BenchmarkVRStep7850(b *testing.B) { benchVRStep(b, 7850) }

// BenchmarkVRStep610 is one SARAH inner step of a convex100 device.
func BenchmarkVRStep610(b *testing.B) { benchVRStep(b, 610) }

// BenchmarkProxStep7850 is line 4's step of a tcp8 worker.
func BenchmarkProxStep7850(b *testing.B) { benchProxStep(b, 7850) }

// BenchmarkProxStep610 is line 4's step of a convex100 device.
func BenchmarkProxStep610(b *testing.B) { benchProxStep(b, 610) }

// BenchmarkAxpy7850 is one reply's term of the tcp8 coordinator's
// weighted mean.
func BenchmarkAxpy7850(b *testing.B) { benchAxpy(b, 7850) }

// BenchmarkAxpy610 is one device's term of convex100's weighted mean.
func BenchmarkAxpy610(b *testing.B) { benchAxpy(b, 610) }
