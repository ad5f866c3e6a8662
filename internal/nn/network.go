// Package nn is a small from-scratch neural-network substrate built for
// variance-reduced federated optimizers. It differs from mainstream NN
// libraries in one structural way: layers own no parameters. All parameters
// live in one flat []float64 owned by the caller, and every Forward/Backward
// call receives the parameter vector (layers see zero-copy slice views).
// This is exactly what SVRG/SARAH need — evaluating ∇f_i at two different
// parameter vectors per step — and what federated aggregation needs —
// averaging raw vectors.
//
// The layer contract is batch-first: activations are row-major batch×size
// matrices (each row one sample), so a whole mini-batch flows through the
// network as blocked matrix-matrix kernels (package tensor) instead of a
// per-sample loop. A batch of one recovers the per-sample path, which the
// reference tests use.
//
// Backward accumulates (+=) into the caller's gradient vector, reducing
// over the batch in ascending sample order (and over GEMM reduction indices
// in ascending order), so gradients are bit-reproducible run-to-run and
// independent of GOMAXPROCS. Per-call scratch lives in a Workspace, so a
// single Network can be shared read-only by many goroutines, each holding
// its own Workspace.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one differentiable stage. Implementations are stateless with
// respect to parameters and activations: everything flows through the
// arguments, and per-call scratch lives in the cache created by NewCache.
//
// Activations are batch-major: x holds b rows of InSize() features, y holds
// b rows of OutSize(), both row-major and flat.
type Layer interface {
	// InSize and OutSize are the flat per-sample activation sizes.
	InSize() int
	OutSize() int
	// NumParams is the number of parameters the layer reads from its view.
	NumParams() int
	// NewCache allocates the scratch this layer needs for one
	// forward/backward pair over batches of at most maxBatch samples.
	NewCache(maxBatch int) Cache
	// Forward computes y (b×OutSize) from x (b×InSize) using params
	// (len NumParams).
	Forward(params, x, y []float64, b int, cache Cache)
	// Backward consumes dY (b×OutSize), writes dX (b×InSize, overwrite) and
	// accumulates the parameter gradient into dParams (+=), summed over the
	// batch in ascending sample order. It must be called after Forward with
	// the same cache, params and b.
	//
	// dX == nil means the caller does not need the input gradient: the layer
	// only accumulates dParams and skips the work that would produce dX.
	// No parameter gradient reads dX, so dParams is bit-identical either way.
	Backward(params, dY, dX, dParams []float64, b int, cache Cache)
}

// Cache is opaque per-layer scratch. Each layer type asserts its own. It
// is an alias of any, so a layer declared outside this package (the
// test-only ReLU of package testx) implements Layer without importing it.
type Cache = any

// Network is a sequential composition of layers sharing one flat parameter
// vector.
type Network struct {
	layers  []Layer
	offsets []int // offsets[i] is the start of layer i's params
	total   int
}

// NewNetwork composes layers, validating that activation sizes chain.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: empty network")
	}
	n := &Network{layers: layers, offsets: make([]int, len(layers))}
	for i, l := range layers {
		if i > 0 && layers[i-1].OutSize() != l.InSize() {
			return nil, fmt.Errorf("nn: layer %d out %d != layer %d in %d",
				i-1, layers[i-1].OutSize(), i, l.InSize())
		}
		n.offsets[i] = n.total
		n.total += l.NumParams()
	}
	return n, nil
}

// MustNetwork is NewNetwork but panics on error; for static architectures.
func MustNetwork(layers ...Layer) *Network {
	n, err := NewNetwork(layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// NumParams returns the total flat parameter count.
func (n *Network) NumParams() int { return n.total }

// InSize returns the input activation size.
func (n *Network) InSize() int { return n.layers[0].InSize() }

// OutSize returns the output activation size.
func (n *Network) OutSize() int { return n.layers[len(n.layers)-1].OutSize() }

// ParamView returns the slice of params owned by layer i.
func (n *Network) ParamView(params []float64, i int) []float64 {
	return params[n.offsets[i] : n.offsets[i]+n.layers[i].NumParams()]
}

// Workspace holds all per-call scratch for one goroutine's use of a
// Network: batched activation buffers between layers and each layer's
// cache, sized for batches of at most maxBatch samples.
type Workspace struct {
	maxBatch int
	// acts[i+1] is the output of layer i (maxBatch×OutSize) and dacts[i+1]
	// its gradient. acts[0] and dacts[0] stay nil: the input is the
	// caller's x, and layer 0 is never asked for its input gradient.
	acts, dacts [][]float64
	caches      []Cache
}

// NewWorkspaceBatch allocates scratch sized for batches of up to maxBatch
// samples.
func (n *Network) NewWorkspaceBatch(maxBatch int) *Workspace {
	if maxBatch < 1 {
		panic("nn: workspace batch must be at least 1")
	}
	ws := &Workspace{
		maxBatch: maxBatch,
		acts:     make([][]float64, len(n.layers)+1),
		dacts:    make([][]float64, len(n.layers)+1),
		caches:   make([]Cache, len(n.layers)),
	}
	for i, l := range n.layers {
		ws.acts[i+1] = make([]float64, maxBatch*l.OutSize())
		ws.dacts[i+1] = make([]float64, maxBatch*l.OutSize())
		ws.caches[i] = l.NewCache(maxBatch)
	}
	return ws
}

// ForwardBatch runs the network on a batch x (b rows of InSize features,
// row-major flat, which may alias caller storage — e.g. a zero-copy view of
// a dataset) and returns a slice aliasing the workspace's b×OutSize output
// activations (valid until the next forward on the same workspace).
func (n *Network) ForwardBatch(params, x []float64, b int, ws *Workspace) []float64 {
	if len(params) != n.total {
		panic(fmt.Sprintf("nn: params len %d, want %d", len(params), n.total))
	}
	if b < 1 || b > ws.maxBatch {
		panic(fmt.Sprintf("nn: batch %d outside workspace capacity %d", b, ws.maxBatch))
	}
	if len(x) != b*n.InSize() {
		panic(fmt.Sprintf("nn: input len %d, want %d×%d", len(x), b, n.InSize()))
	}
	in := x
	for i, l := range n.layers {
		out := ws.acts[i+1][:b*l.OutSize()]
		l.Forward(n.ParamView(params, i), in, out, b, ws.caches[i])
		in = out
	}
	return in
}

// BackwardBatch propagates dOut (b×OutSize gradient w.r.t. the output of
// the last ForwardBatch on ws) and accumulates the parameter gradient into
// grad (+=), summed over the batch. grad must have length NumParams. Layer
// 0 gets a nil dX: nothing reads the gradient w.r.t. the network input.
func (n *Network) BackwardBatch(params, dOut []float64, b int, ws *Workspace, grad []float64) {
	if len(grad) != n.total {
		panic(fmt.Sprintf("nn: grad len %d, want %d", len(grad), n.total))
	}
	if b < 1 || b > ws.maxBatch {
		panic(fmt.Sprintf("nn: batch %d outside workspace capacity %d", b, ws.maxBatch))
	}
	last := len(n.layers)
	if len(dOut) != b*n.OutSize() {
		panic("nn: dOut size mismatch")
	}
	copy(ws.dacts[last][:b*n.OutSize()], dOut)
	for i := last - 1; i >= 0; i-- {
		l := n.layers[i]
		var dX []float64
		if i > 0 {
			dX = ws.dacts[i][:b*l.InSize()]
		}
		l.Backward(n.ParamView(params, i), ws.dacts[i+1][:b*l.OutSize()], dX,
			grad[n.offsets[i]:n.offsets[i]+l.NumParams()], b, ws.caches[i])
	}
}

// InitParams fills params with a standard layer-aware initialization:
// Glorot-uniform weights, zero biases, via each layer's optional
// Initializer. Layers that do not implement Initializer are zero-filled.
func (n *Network) InitParams(rng *rand.Rand, params []float64) {
	if len(params) != n.total {
		panic("nn: InitParams wrong length")
	}
	for i, l := range n.layers {
		view := n.ParamView(params, i)
		if init, ok := l.(Initializer); ok {
			init.Init(rng, view)
		} else {
			for j := range view {
				view[j] = 0
			}
		}
	}
}

// Initializer is implemented by layers that have parameters to initialize.
type Initializer interface {
	Init(rng *rand.Rand, params []float64)
}

// glorotUniform fills w with Uniform(−b, b), b = sqrt(6/(fanIn+fanOut)).
func glorotUniform(rng *rand.Rand, w []float64, fanIn, fanOut int) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * bound
	}
}
