package tensor

import "math"

// expProbes are the arguments the init-time check runs: −1.1057467696506076,
// where math.Exp's FMA and non-FMA amd64 paths round 1 ulp apart, the
// kernel's range ends, math.Exp's +Inf at k = 1024 inside that range, and
// a few plain values.
var expProbes = [...]float64{-1.1057467696506076, -708, 0.5, 709.5, 709.78, 3.25, -20.0625, 1}

// expKernelOK reports whether expSIMD reproduces this process's math.Exp.
// The CPUID gate behind simdEnabled says only that the kernel can run;
// math.Exp picks its own path from internal/cpu, which honours
// GODEBUG=cpu.fma=off and then rounds without FMA. The probe runs the
// kernel on arguments where the two paths differ and keeps it only where
// every result matches math.Exp bit for bit.
var expKernelOK = simdEnabled && expMatchesMath()

// expMatchesMath reports whether expSIMD returns math.Exp's bits on every
// probe argument.
func expMatchesMath() bool {
	x := expProbes
	if expSIMD(x[:]) != len(x) {
		return false
	}
	for i, v := range expProbes {
		if math.Float64bits(x[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// Exp overwrites every x[i] with math.Exp(x[i]), bit for bit. With AVX2 it
// runs expSIMD, which replays math.Exp's amd64 FMA path four lanes at a
// time; a group of four holding an argument outside the kernel's range
// (non-finite, below −708 or above 709.78) and the last len(x)%4 elements
// go through math.Exp itself.
func Exp(x []float64) {
	if simdEnabled && expKernelOK {
		for len(x) >= 4 {
			x = x[expSIMD(x):]
			if len(x) < 4 {
				break
			}
			for i, v := range x[:4] {
				x[i] = math.Exp(v)
			}
			x = x[4:]
		}
	}
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}
