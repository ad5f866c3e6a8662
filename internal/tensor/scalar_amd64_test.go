package tensor

import "testing"

// withScalarKernels switches the AVX2 kernels off for the rest of t, so the
// scalar fallback — what a machine without AVX2+FMA runs — is exercised on
// one that has them. Tests using it must not run in parallel with others.
func withScalarKernels(t testing.TB) {
	old := simdEnabled
	simdEnabled = false
	t.Cleanup(func() { simdEnabled = old })
}

// WithScalarKernels exposes withScalarKernels to the external test package,
// whose model gradient checks cannot live inside package tensor.
var WithScalarKernels = withScalarKernels

// SIMDEnabled reports to the external test package whether the AVX2+FMA
// kernels run, so a test pinning their bits can skip where they do not.
func SIMDEnabled() bool { return simdEnabled }

// forEachKernelSet runs f once on the AVX2 kernels (where this CPU has
// them) and once on the scalar fallback.
func forEachKernelSet(t *testing.T, f func(t *testing.T)) {
	t.Run("AVX2", func(t *testing.T) {
		if !simdEnabled {
			t.Skip("AVX2+FMA kernels are off on this CPU")
		}
		f(t)
	})
	t.Run("Scalar", func(t *testing.T) {
		withScalarKernels(t)
		f(t)
	})
}

// TestScalarFallbackKernels reruns the GEMM tests on the scalar fallback:
// against the naive product, parallel against serial, at several
// GOMAXPROCS, and bit for bit against the reference bodies, which on this
// path run the scalar axpyRow and dot4. It replays FuzzExp's seeds too,
// through Exp's math.Exp loop.
func TestScalarFallbackKernels(t *testing.T) {
	for _, test := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"GemmVariantsMatchNaive", TestGemmVariantsMatchNaive},
		{"ParGemmBitIdenticalToSerial", TestParGemmBitIdenticalToSerial},
		{"ParGemmIndependentOfGOMAXPROCS", TestParGemmIndependentOfGOMAXPROCS},
		{"GemmTilesMatchReference", TestGemmTilesMatchReference},
		{"ExpMatchesMath", TestExpMatchesMath},
	} {
		t.Run(test.name, func(t *testing.T) {
			withScalarKernels(t)
			test.run(t)
		})
	}
}
