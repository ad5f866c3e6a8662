package tensor

// The local solver's element-wise passes: one proximal gradient step
// toward an anchor (ProxStep), the SVRG/SARAH estimator update fused with
// it (VRStep), and the aggregation fold's y += a·x (Axpy). Each rounds
// every product on its own and takes the operand roles the compiled
// scalar loops they replace have: the Go steps pin them with nanFirstAdd
// and nanFirstMul, and with AVX2 the first n&^3 elements go four lanes at
// a time through VSUBPD, VADDPD and VMULPD with the same first sources,
// never a fused multiply-add. Both paths give the same bits, NaN payloads
// included; the last n%4 elements, and every element without AVX2, take
// the Go steps.

// StepCoef holds the coefficients of one proximal gradient step
// prox(w − ηv) toward an anchor a, whose closed form is
// ((w − ηv) + ημ·a)/(1 + ημ): Neg = −η, Em = ημ and Inv = 1/(1+ημ). Id
// marks μ = 0, where the prox is the identity and a is not read.
type StepCoef struct {
	Neg, Em, Inv float64
	Id           bool
}

// at returns one coordinate of the step: x = v·Neg + w, then, unless Id,
// (x + a·Em)·Inv, each operation with its left operand as first source.
func (c StepCoef) at(w, v, a float64) float64 {
	x := nanFirstAdd(nanFirstMul(v, c.Neg), w)
	if c.Id {
		return x
	}
	return nanFirstMul(nanFirstAdd(x, nanFirstMul(a, c.Em)), c.Inv)
}

// ProxStep stores the step from w[i] along v[i] toward a[i] into dst[i]
// for every i < len(dst). w, v and a must be at least as long as dst. dst
// may be w or v; no other two may overlap.
func ProxStep(c StepCoef, dst, w, v, a []float64) {
	n := len(dst)
	w, v, a = w[:n], v[:n], a[:n]
	i := 0
	if simdEnabled && n >= 4 {
		proxStepSIMD(dst, w, v, a, c.Neg, c.Em, c.Inv, c.Id)
		i = n &^ 3
	}
	for ; i < n; i++ {
		dst[i] = c.at(w[i], v[i], a[i])
	}
}

// VRStep takes one variance-reduced step in one pass: for every
// i < len(dst) the direction u = (g1[i] − g2[i]) + base[i] is stored into
// v[i], unless v is nil, and the step from w[i] along u toward a[i] into
// dst[i]. The other slices must be at least as long as dst. dst may be w
// and base may be v; no other two may overlap.
func VRStep(c StepCoef, dst, w, v, g1, g2, base, a []float64) {
	n := len(dst)
	w, g1, g2, base, a = w[:n], g1[:n], g2[:n], base[:n], a[:n]
	if v != nil {
		v = v[:n]
	}
	i := 0
	if simdEnabled && n >= 4 {
		vrStepSIMD(dst, w, v, g1, g2, base, a, c.Neg, c.Em, c.Inv, c.Id)
		i = n &^ 3
	}
	for ; i < n; i++ {
		u := nanFirstAdd(g1[i]-g2[i], base[i])
		if v != nil {
			v[i] = u
		}
		dst[i] = c.at(w[i], u, a[i])
	}
}

// Axpy adds a·x[i] to y[i] for every i < len(x), as x[i]·a rounded on its
// own plus y[i]. y must be at least as long as x.
func Axpy(a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	if simdEnabled && n >= 4 {
		axpyNoFMASIMD(a, x, y)
		i = n &^ 3
	}
	for ; i < n; i++ {
		y[i] = nanFirstAdd(nanFirstMul(x[i], a), y[i])
	}
}
