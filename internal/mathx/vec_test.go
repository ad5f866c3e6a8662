package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedproxvr/internal/testx"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy -> %v, want %v", y, want)
		}
	}
	// a == 0 is a no-op.
	before := Clone(y)
	Axpy(0, []float64{9, 9, 9}, y)
	for i := range y {
		if y[i] != before[i] {
			t.Fatal("Axpy with a=0 modified y")
		}
	}
}

func TestSub(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 5}
	dst := make([]float64, 2)
	Sub(dst, x, y)
	if dst[0] != -2 || dst[1] != -3 {
		t.Fatalf("Sub -> %v", dst)
	}
	// Aliasing dst with x must be safe.
	Sub(x, x, y)
	if x[0] != -2 || x[1] != -3 {
		t.Fatalf("aliased Sub -> %v", x)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, 4}
	if Nrm2Sq(x) != 25 {
		t.Fatalf("Nrm2Sq = %v", Nrm2Sq(x))
	}
	if Nrm2(x) != 5 {
		t.Fatalf("Nrm2 = %v", Nrm2(x))
	}
}

func TestZeroClone(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	Zero(x)
	if x[0] != 0 || x[2] != 0 {
		t.Fatal("Zero failed")
	}
	if c[0] != 1 || c[2] != 3 {
		t.Fatal("Clone aliases original")
	}
}

func TestArgMaxMax(t *testing.T) {
	x := []float64{-1, 5, 5, 2}
	if ArgMax(x) != 1 {
		t.Fatalf("ArgMax = %d, want first max index 1", ArgMax(x))
	}
}

func TestLogSumExpStable(t *testing.T) {
	// Large values must not overflow.
	x := []float64{1000, 1000}
	want := 1000 + math.Log(2)
	if got := testx.LogSumExp(x); !almostEq(got, want, 1e-12) {
		t.Fatalf("LogSumExp = %v, want %v", got, want)
	}
	// Matches naive computation in a safe range.
	y := []float64{0.1, -0.4, 2.2}
	naive := math.Log(math.Exp(0.1) + math.Exp(-0.4) + math.Exp(2.2))
	if got := testx.LogSumExp(y); !almostEq(got, naive, 1e-12) {
		t.Fatalf("LogSumExp = %v, want %v", got, naive)
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	x := []float64{1, 2, 3}
	testx.SoftmaxInPlace(x)
	if !almostEq(x[0]+x[1]+x[2], 1, 1e-12) {
		t.Fatalf("softmax does not sum to 1: %v", x)
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Fatalf("softmax not monotone: %v", x)
	}
	// Stability at large magnitudes.
	y := []float64{1e4, 1e4 + 1}
	testx.SoftmaxInPlace(y)
	if math.IsNaN(y[0]) || math.IsNaN(y[1]) || math.IsInf(y[0], 0) || math.IsInf(y[1], 0) {
		t.Fatalf("softmax overflowed: %v", y)
	}
}

// TestSoftmaxInPlaceReturnsLogSumExp pins SoftmaxInPlace's return value to
// LogSumExp of its input bit for bit, the rows whose max is −Inf or +Inf
// and the rows holding a NaN included: the fused loss-and-gradient pass of
// the models reads its loss terms from it.
func TestSoftmaxInPlaceReturnsLogSumExp(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rows := map[string][]float64{
		"plain":        {0.1, -0.4, 2.2, 7, -3},
		"one entry":    {-12.5},
		"large":        {1000, 1000, -1000},
		"tiny spread":  {1e-300, -1e-300, 0},
		"-Inf max":     {math.Inf(-1), math.Inf(-1)},
		"-Inf entry":   {math.Inf(-1), 3, 1},
		"+Inf entry":   {1, inf, 2},
		"NaN entry":    {1, nan, 2},
		"NaN first":    {nan, 1, 2},
		"+Inf and NaN": {inf, nan},
	}
	for name, row := range rows {
		want := testx.LogSumExp(row)
		if got := testx.SoftmaxInPlace(Clone(row)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: SoftmaxInPlace returned %v (%#x), LogSumExp %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64, a float64) bool {
		if len(raw) < 2 {
			return true
		}
		a = math.Mod(a, 10)
		n := len(raw) / 2
		x, y := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if !almostEq(Dot(x, y), Dot(y, x), 1e-9) {
			return false
		}
		ax := Clone(x)
		Scal(a, ax)
		return almostEq(Dot(ax, y), a*Dot(x, y), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Nrm2.
func TestTriangleInequalityQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		x, y := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				return true
			}
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = x[i] + y[i]
		}
		return Nrm2(s) <= Nrm2(x)+Nrm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}

func BenchmarkAxpy(b *testing.B) {
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
	}
}
