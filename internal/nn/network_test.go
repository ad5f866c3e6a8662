package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedproxvr/internal/tensor"
	"fedproxvr/internal/testx"
)

// scalarProbe evaluates φ(params) = <net's output on the one sample x, r>.
func scalarProbe(net *Network, params, x, r []float64, ws *Workspace) float64 {
	out := net.ForwardBatch(params, x, 1, ws)
	var s float64
	for i, v := range out {
		s += v * r[i]
	}
	return s
}

// checkNetGradient compares Backward against central finite differences of
// the scalar probe for every parameter (TestInputGradient covers dX).
func checkNetGradient(t *testing.T, net *Network, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	// Perturb biases as well so their gradients are exercised at non-zero.
	for i := range params {
		params[i] += 0.05 * rng.NormFloat64()
	}
	x := make([]float64, net.InSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	r := make([]float64, net.OutSize())
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	ws := net.NewWorkspaceBatch(1)

	grad := make([]float64, net.NumParams())
	net.ForwardBatch(params, x, 1, ws)
	net.BackwardBatch(params, r, 1, ws, grad)

	const h = 1e-5
	for i := 0; i < len(params); i++ {
		orig := params[i]
		params[i] = orig + h
		fp := scalarProbe(net, params, x, r, ws)
		params[i] = orig - h
		fm := scalarProbe(net, params, x, r, ws)
		params[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(grad[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("param %d: analytic %v, numeric %v", i, grad[i], want)
		}
	}
}

func TestDenseGradient(t *testing.T) {
	net := MustNetwork(NewDense(7, 5))
	checkNetGradient(t, net, 1, 1e-6)
}

func TestDenseReLUDenseGradient(t *testing.T) {
	net := MustNetwork(NewDense(6, 8), testx.NewReLU(8), NewDense(8, 3))
	checkNetGradient(t, net, 2, 1e-5)
}

func TestConvPoolGradient(t *testing.T) {
	shape := tensor.ConvShape{InC: 1, InH: 8, InW: 8, K: 3}
	conv := NewConv2D(shape, 2)
	pool := NewReLUMaxPool(conv)
	net := MustNetwork(conv, pool, NewDense(pool.OutSize(), 3))
	checkNetGradient(t, net, 4, 1e-5)
}

// TestInputGradient checks the dX of every layer type, called directly with
// a non-nil dX over a batch of two, against central finite differences of
// φ(x) = <Forward(x), r> with params fixed. dX starts as NaN, so a layer
// that accumulates into it instead of overwriting fails.
func TestInputGradient(t *testing.T) {
	conv := tensor.ConvShape{InC: 2, InH: 5, InW: 6, K: 3}
	cases := []struct {
		name string
		l    Layer
	}{
		{"Dense", NewDense(5, 4)},
		{"Conv2D", NewConv2D(conv, 3)},
		{"ReLU", testx.NewReLU(7)},
		{"ReLUMaxPool", poolOver(2, 4, 4)},
	}
	const b, h = 2, 1e-6
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.l
			rng := rand.New(rand.NewSource(5))
			normals := func(n int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return v
			}
			params, x, r := normals(l.NumParams()), normals(b*l.InSize()), normals(b*l.OutSize())
			y := make([]float64, b*l.OutSize())
			probe := func() float64 {
				l.Forward(params, x, y, b, l.NewCache(b))
				var s float64
				for i, v := range y {
					s += v * r[i]
				}
				return s
			}
			cache := l.NewCache(b)
			l.Forward(params, x, y, b, cache)
			dX := make([]float64, b*l.InSize())
			for i := range dX {
				dX[i] = math.NaN()
			}
			l.Backward(params, r, dX, make([]float64, l.NumParams()), b, cache)
			for i := range x {
				orig := x[i]
				x[i] = orig + h
				fp := probe()
				x[i] = orig - h
				fm := probe()
				x[i] = orig
				want := (fp - fm) / (2 * h)
				if math.Abs(dX[i]-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("dX[%d]: analytic %v, numeric %v", i, dX[i], want)
				}
			}
		})
	}
}

// backwardEveryLayer is BackwardBatch with layer 0 also asked for its input
// gradient, which it writes into dX0.
func backwardEveryLayer(n *Network, params, dOut []float64, b int, ws *Workspace, grad, dX0 []float64) {
	last := len(n.layers)
	copy(ws.dacts[last][:b*n.OutSize()], dOut)
	for i := last - 1; i >= 0; i-- {
		l := n.layers[i]
		dX := dX0
		if i > 0 {
			dX = ws.dacts[i][:b*l.InSize()]
		}
		l.Backward(n.ParamView(params, i), ws.dacts[i+1][:b*l.OutSize()], dX,
			grad[n.offsets[i]:n.offsets[i]+l.NumParams()], b, ws.caches[i])
	}
}

// thinPaperCNN is the paper's CNN at channel width divisor 8 (4 and 8
// channels), the model the benchmark's cnn10 workload trains.
func thinPaperCNN() *Network {
	s1 := tensor.ConvShape{InC: 1, InH: 28, InW: 28, K: 5}
	c1 := NewConv2D(s1, 4)
	s2 := tensor.ConvShape{InC: 4, InH: 14, InW: 14, K: 5}
	c2 := NewConv2D(s2, 8)
	return MustNetwork(c1, NewReLUMaxPool(c1), c2, NewReLUMaxPool(c2), NewDense(8*7*7, 10))
}

// TestSkippedInputGradientIsBitNeutral pins BackwardBatch, which passes
// layer 0 a nil dX, to a loop that still computes layer 0's input
// gradient: the parameter gradients of the thin paper CNN and the MLP must
// agree bit for bit.
func TestSkippedInputGradientIsBitNeutral(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"ThinCNN", thinPaperCNN()},
		{"MLP", MustNetwork(NewDense(784, 32), testx.NewReLU(32), NewDense(32, 10))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			rng := rand.New(rand.NewSource(14))
			params := make([]float64, net.NumParams())
			net.InitParams(rng, params)
			const b = 8
			x, dOut := randomBatch(rng, net, b)
			ws := net.NewWorkspaceBatch(b)

			got := make([]float64, net.NumParams())
			net.ForwardBatch(params, x, b, ws)
			net.BackwardBatch(params, dOut, b, ws, got)

			want := make([]float64, net.NumParams())
			dX0 := make([]float64, b*net.InSize())
			net.ForwardBatch(params, x, b, ws)
			backwardEveryLayer(net, params, dOut, b, ws, want, dX0)

			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("grad[%d]: nil layer-0 dX %v, full backward %v", i, got[i], want[i])
				}
			}
			var norm float64
			for _, v := range dX0 {
				norm += v * v
			}
			if norm == 0 {
				t.Fatal("the full backward computed no layer-0 input gradient")
			}
		})
	}
}

func TestBackwardAccumulates(t *testing.T) {
	net := MustNetwork(NewDense(3, 2))
	rng := rand.New(rand.NewSource(6))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	x := []float64{1, 2, 3}
	r := []float64{1, 1}
	ws := net.NewWorkspaceBatch(1)
	g1 := make([]float64, net.NumParams())
	net.ForwardBatch(params, x, 1, ws)
	net.BackwardBatch(params, r, 1, ws, g1)
	g2 := make([]float64, net.NumParams())
	copy(g2, g1)
	net.ForwardBatch(params, x, 1, ws)
	net.BackwardBatch(params, r, 1, ws, g2) // second accumulation
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("Backward does not accumulate: g2[%d]=%v, 2*g1=%v", i, g2[i], 2*g1[i])
		}
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(); err == nil {
		t.Fatal("empty network should error")
	}
	if _, err := NewNetwork(NewDense(3, 4), NewDense(5, 2)); err == nil {
		t.Fatal("mismatched chain should error")
	}
	net := MustNetwork(NewDense(3, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong params length")
		}
	}()
	net.ForwardBatch(make([]float64, 1), make([]float64, 3), 1, net.NewWorkspaceBatch(1))
}

// TestMaxPoolForwardValues checks the fused layer's values and routing on
// one 4×4 channel: a window's output is its largest input and its
// gradient goes there. A window with no positive input outputs +0 and
// passes nothing.
func TestMaxPoolForwardValues(t *testing.T) {
	p := poolOver(1, 4, 4)
	in := []float64{
		1, 2, 0, 0,
		3, 4, 0, 5,
		0, 0, 9, 8,
		0, 7, 6, 0,
	}
	out := make([]float64, 4)
	cache := p.NewCache(1)
	p.Forward(nil, in, out, 1, cache)
	want := []float64{4, 5, 7, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pool out = %v, want %v", out, want)
		}
	}
	// Routing check: gradient flows only to the max positions.
	dIn := make([]float64, 16)
	p.Backward(nil, []float64{1, 1, 1, 1}, dIn, nil, 1, cache)
	if dIn[5] != 1 || dIn[7] != 1 || dIn[13] != 1 || dIn[10] != 1 {
		t.Fatalf("pool routing wrong: %v", dIn)
	}
	var total float64
	for _, v := range dIn {
		total += v
	}
	if total != 4 {
		t.Fatalf("pool gradient mass %v, want 4", total)
	}

	in[2], in[3], in[6], in[7] = -1, math.Copysign(0, -1), -2, math.NaN()
	p.Forward(nil, in, out, 1, cache)
	p.Backward(nil, []float64{1, 1, 1, 1}, dIn, nil, 1, cache)
	if math.Float64bits(out[1]) != 0 || dIn[2] != 0 || dIn[3] != 0 || dIn[6] != 0 || dIn[7] != 0 {
		t.Fatalf("a window with no positive input: out %v, routed %v, want +0 and nothing", out[1], dIn[2:8])
	}
}

func TestConvSameShapeAsPaper(t *testing.T) {
	// The paper's CNN: 28x28 → conv5x5(32) → pool2 → conv5x5(64) → pool2.
	s1 := tensor.ConvShape{InC: 1, InH: 28, InW: 28, K: 5}
	c1 := NewConv2D(s1, 32)
	s2 := tensor.ConvShape{InC: 32, InH: 14, InW: 14, K: 5}
	c2 := NewConv2D(s2, 64)
	net := MustNetwork(c1, NewReLUMaxPool(c1), c2, NewReLUMaxPool(c2), NewDense(64*7*7, 10))
	if net.InSize() != 784 || net.OutSize() != 10 {
		t.Fatalf("paper CNN sizes wrong: in %d out %d", net.InSize(), net.OutSize())
	}
	// Forward/backward smoke test at full size.
	rng := rand.New(rand.NewSource(8))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	x := make([]float64, 784)
	for i := range x {
		x[i] = rng.Float64()
	}
	ws := net.NewWorkspaceBatch(1)
	out := net.ForwardBatch(params, x, 1, ws)
	if len(out) != 10 {
		t.Fatal("bad output")
	}
	grad := make([]float64, net.NumParams())
	net.BackwardBatch(params, make([]float64, 10), 1, ws, grad)
}

func BenchmarkPaperCNNForward(b *testing.B) {
	s1 := tensor.ConvShape{InC: 1, InH: 28, InW: 28, K: 5}
	c1 := NewConv2D(s1, 32)
	s2 := tensor.ConvShape{InC: 32, InH: 14, InW: 14, K: 5}
	c2 := NewConv2D(s2, 64)
	net := MustNetwork(c1, NewReLUMaxPool(c1), c2, NewReLUMaxPool(c2), NewDense(64*7*7, 10))
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	x := make([]float64, 784)
	for i := range x {
		x[i] = rng.Float64()
	}
	ws := net.NewWorkspaceBatch(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(params, x, 1, ws)
	}
}
