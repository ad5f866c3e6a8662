package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// expSeeds are the arguments FuzzExp starts from and TestExpMatchesMath
// runs: ±0, ±Inf and NaN; the kernel's range ends and their neighbours;
// math.Exp's last normal result, its subnormal results and its underflow
// to 0; its +Inf at k = 1024 below the overflow threshold and the
// threshold itself; subnormal and tiny arguments; and 1 ulp splits between
// math.Exp's FMA and non-FMA paths.
var expSeeds = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	-708, math.Nextafter(-708, math.Inf(-1)), -708.4, -745.13, -746,
	709.78, math.Nextafter(709.78, math.Inf(1)), 709.4, 709.5, 709.782712893384,
	5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
	-1.1057467696506076, 1, -1, 0.5, -20.0625, 1e300, -1e300,
}

// checkExp runs Exp over x, placed off elements into a fresh buffer so the
// four-lane groups start off the 32-byte boundary, and fails t unless every
// result is math.Exp's bit for bit.
func checkExp(t testing.TB, x []float64, off int) {
	t.Helper()
	buf := make([]float64, off+len(x))
	got := buf[off:]
	copy(got, x)
	Exp(got)
	for i, v := range x {
		if want := math.Exp(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("len %d off %d: Exp(%v)[%d] = %v (%#x), math.Exp %v (%#x)", len(x), off,
				v, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// expInputs builds the slice FuzzExp checks: n elements, all equal to v,
// or, with mixed set, spread over the kernel's range except for one v at
// index at, so a group can hold an argument the kernel leaves to math.Exp
// beside three it takes.
func expInputs(v float64, n, at int, mixed bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = v
		if mixed && i != at%n {
			x[i] = 1 - 0.37*float64(i)
		}
	}
	return x
}

// TestExpMatchesMath holds Exp to math.Exp bit for bit: every seed at every
// length 0–17 and offset 0–3, alone and mixed with in-range lanes, and
// random arguments — uniform over the kernel's range and beyond, and
// raw random bit patterns.
func TestExpMatchesMath(t *testing.T) {
	for _, v := range expSeeds {
		for n := 0; n <= 17; n++ {
			for off := 0; off < 4; off++ {
				checkExp(t, expInputs(v, n, off, false), off)
				if n > 0 {
					checkExp(t, expInputs(v, n, n/2+off, true), off)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(38))
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = (2*rng.Float64() - 1) * 750
	}
	checkExp(t, x, 1)
	for i := range x {
		x[i] = -40 * rng.Float64()
	}
	checkExp(t, x, 2)
	for i := range x {
		x[i] = math.Float64frombits(rng.Uint64())
	}
	checkExp(t, x, 3)
}

// TestExpKernelGate pins the init-time probe: on an AVX2 host the kernel is
// kept exactly when math.Exp rounds like its FMA path, which
// GODEBUG=cpu.fma=off turns off (the models' re-executed head test runs
// the process that way).
func TestExpKernelGate(t *testing.T) {
	const probe = -1.1057467696506076
	mathFMA := math.Float64bits(math.Exp(probe)) == 0x3fd52e821a8ec2c5
	if want := simdEnabled && mathFMA; expKernelOK != want {
		t.Fatalf("expKernelOK = %v with AVX2 %v and math.Exp on its FMA path %v", expKernelOK, simdEnabled, mathFMA)
	}
}

// FuzzExp checks Exp against math.Exp for any argument bits, at any length
// 0–17 and buffer offset 0–3, with every element equal and with the
// argument among in-range lanes.
func FuzzExp(f *testing.F) {
	for i, v := range expSeeds {
		f.Add(math.Float64bits(v), uint8(17), uint8(i%4), uint8(i))
	}
	f.Fuzz(func(t *testing.T, bits uint64, n, off, at uint8) {
		v := math.Float64frombits(bits)
		ln, o := int(n%18), int(off%4)
		checkExp(t, expInputs(v, ln, 0, false), o)
		if ln > 0 {
			checkExp(t, expInputs(v, ln, int(at), true), o)
		}
	})
}
