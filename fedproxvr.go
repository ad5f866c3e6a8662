// Package fedproxvr is a from-scratch Go reproduction of "Federated
// Learning with Proximal Stochastic Variance Reduced Gradient Algorithms"
// (Dinh, Tran, Nguyen, Bao, Zomaya, Zhou — ICPP 2020).
//
// It provides:
//
//   - FedProxVR (Algorithm 1) with SVRG and SARAH local estimators, plus
//     the FedAvg and FedProx baselines, over any Model (convex losses and
//     a built-in NN/CNN stack with hand-derived backprop);
//   - heterogeneous federated dataset generators (FedProx-style
//     Synthetic(α,β), procedural MNIST-like and Fashion-like images,
//     label-skew power-law partitioners);
//   - executable versions of the paper's theory: Lemma 1 bounds, the
//     Theorem 1 federated factor Θ, and the Section 4.3 training-time
//     optimizer;
//   - an in-process parallel simulator and a framed-TCP distributed
//     runtime that reproduce each other bit-for-bit;
//   - regenerators for every figure and table of the paper's evaluation.
//
// Quick start:
//
//	task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{Seed: 1})
//	cfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 0.1, 20, 32, 100)
//	cfg.Test = task.Test
//	series, w, err := fedproxvr.Train(task, cfg)
package fedproxvr

import (
	"context"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
)

// Re-exported types. The aliases give users a single import while the
// implementation stays in focused internal packages.
type (
	// Config describes one federated training run (algorithm, T, τ, η, μ…).
	Config = engine.Config
	// Model is the differentiable empirical-risk oracle all algorithms use.
	Model = models.Model
	// Classifier is a Model that predicts class labels.
	Classifier = models.Classifier
	// Dataset is a dense supervised dataset.
	Dataset = data.Dataset
	// Partition is a federated dataset (one shard per device).
	Partition = data.Partition
	// Series records per-round training metrics.
	Series = metrics.Series
	// Point is one round's metrics.
	Point = metrics.Point
	// Estimator selects the local gradient estimator (SGD, SVRG, SARAH).
	Estimator = optim.Estimator
	// LocalConfig is the device-side inner-loop configuration.
	LocalConfig = optim.LocalConfig
)

// Estimator values.
const (
	SGD   = optim.SGD
	SVRG  = optim.SVRG
	SARAH = optim.SARAH
)

// Config constructors (see internal/engine for details).
var (
	// FedAvg builds the SGD baseline configuration.
	FedAvg = engine.FedAvg
	// FedProx builds the proximal-SGD baseline configuration.
	FedProx = engine.FedProx
	// FedProxVR builds the paper's algorithm configuration.
	FedProxVR = engine.FedProxVR
	// StepSize returns η = 1/(βL).
	StepSize = engine.StepSize
)

// Task bundles everything one experiment needs: the model, the federated
// training partition, a held-out test set, a smoothness estimate L used for
// η = 1/(βL), and an optional non-zero initialization.
type Task struct {
	Model Model
	Part  *Partition
	Test  *Dataset
	L     float64
	InitW []float64
}

// Train runs one federated training configuration on a task and returns
// the metric series and the final global model.
func Train(task Task, cfg Config) (*Series, []float64, error) {
	return TrainContext(context.Background(), task, cfg)
}

// TrainContext is Train with cancellation: the run stops between rounds
// when ctx is done and returns the series so far alongside ctx.Err().
func TrainContext(ctx context.Context, task Task, cfg Config) (*Series, []float64, error) {
	r, err := NewRunner(task, cfg)
	if err != nil {
		return nil, nil, err
	}
	series, err := r.RunContext(ctx)
	return series, mathx.Clone(r.Global()), err
}

// SyntheticOptions controls SyntheticTask.
type SyntheticOptions struct {
	Devices    int     // default 100 (paper)
	Alpha      float64 // model heterogeneity, default 1
	Beta       float64 // feature heterogeneity, default 1
	MinSamples int     // default 37 (paper range)
	MaxSamples int     // default 3277
	L2         float64 // optional regularization
	Seed       int64
}

// SyntheticTask builds the paper's "Synthetic" convex experiment: the
// FedProx-style Synthetic(α,β) dataset with a multinomial logistic
// regression model. 25% of every shard is held out into the global test
// set (the paper splits 75/25).
func SyntheticTask(o SyntheticOptions) Task {
	if o.Devices == 0 {
		o.Devices = 100
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Beta == 0 {
		o.Beta = 1
	}
	if o.MinSamples == 0 {
		o.MinSamples = 37
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 3277
	}
	cfg := data.SyntheticConfig{
		NumDevices: o.Devices,
		Dim:        60,
		NumClasses: 10,
		Alpha:      o.Alpha,
		Beta:       o.Beta,
		MinSamples: o.MinSamples,
		MaxSamples: o.MaxSamples,
		Seed:       o.Seed,
	}
	part := data.GenerateSynthetic(cfg)
	train, test := splitPartition(part, 0.75, o.Seed)
	return Task{
		Model: models.NewSoftmax(60, 10, o.L2),
		Part:  train,
		Test:  test,
		L:     estimateSoftmaxL(train),
	}
}

// ImageStyle selects the procedural image family.
type ImageStyle = data.ImageStyle

// Image styles.
const (
	// Digits is the MNIST substitute (stroke glyphs).
	Digits = data.StyleDigits
	// Fashion is the Fashion-MNIST substitute (garment silhouettes).
	Fashion = data.StyleFashion
)

// ImageOptions controls ImageTask.
type ImageOptions struct {
	Style           ImageStyle
	Devices         int // default 100 (convex experiments)
	SamplesPerClass int // total per class before the split; default 300
	LabelsPerDevice int // default 2 (paper)
	MinSamples      int // default 40
	MaxSamples      int // default 400
	L2              float64
	Seed            int64
}

// ImageTask builds a federated image-classification task on procedural
// 28×28 images with the paper's label-skew partition (2 labels/device,
// power-law sizes) and a multinomial logistic regression model. Use
// CNNTask for the non-convex counterpart.
func ImageTask(o ImageOptions) (Task, error) {
	o = imageDefaults(o)
	gen := data.NewImageGenerator(data.ImageConfig{Style: o.Style, Seed: o.Seed})
	full := gen.Generate(o.SamplesPerClass*10, 0)
	train, test := full.Split(0.75, o.Seed+1)
	part, err := data.PartitionByLabel(train, data.PartitionConfig{
		NumDevices:      o.Devices,
		LabelsPerDevice: o.LabelsPerDevice,
		MinSamples:      o.MinSamples,
		MaxSamples:      o.MaxSamples,
		Seed:            o.Seed + 2,
	})
	if err != nil {
		return Task{}, err
	}
	return Task{
		Model: models.NewSoftmax(data.ImageDim, 10, o.L2),
		Part:  part,
		Test:  test,
		L:     estimateSoftmaxL(part),
	}, nil
}

// CNNTask builds the paper's non-convex task: the two-layer CNN on
// procedural digit images, 10 devices (the paper reduces the device count
// for CNN cost reasons). widthDivisor > 1 thins the CNN for fast runs
// (1 = the paper's 32/64-channel network).
func CNNTask(o ImageOptions, widthDivisor int) (Task, error) {
	o = imageDefaults(o)
	if o.Devices == 0 || o.Devices > 10 {
		o.Devices = 10
	}
	gen := data.NewImageGenerator(data.ImageConfig{Style: o.Style, Seed: o.Seed})
	full := gen.Generate(o.SamplesPerClass*10, 0)
	train, test := full.Split(0.75, o.Seed+1)
	part, err := data.PartitionByLabel(train, data.PartitionConfig{
		NumDevices:      o.Devices,
		LabelsPerDevice: o.LabelsPerDevice,
		MinSamples:      o.MinSamples,
		MaxSamples:      o.MaxSamples,
		Seed:            o.Seed + 2,
	})
	if err != nil {
		return Task{}, err
	}
	m := models.NewPaperCNN(10, widthDivisor, o.L2)
	w0 := make([]float64, m.Dim())
	m.InitParams(randx.NewStream(o.Seed, 31), w0)
	return Task{
		Model: m,
		Part:  part,
		Test:  test,
		// NN smoothness has no closed form; this estimate is calibrated so
		// the paper's β ∈ [5, 10] maps to step sizes (0.05–0.1) where the
		// CNN trains stably (η ≥ 0.2 stalls it — see EXPERIMENTS.md).
		L:     2,
		InitW: w0,
	}, nil
}

func imageDefaults(o ImageOptions) ImageOptions {
	if o.Devices == 0 {
		o.Devices = 100
	}
	if o.SamplesPerClass == 0 {
		o.SamplesPerClass = 300
	}
	if o.LabelsPerDevice == 0 {
		o.LabelsPerDevice = 2
	}
	if o.MinSamples == 0 {
		o.MinSamples = 40
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 400
	}
	return o
}

// splitPartition holds out a fraction of every shard into one global test
// set, preserving per-device heterogeneity in the training shards.
func splitPartition(p *Partition, trainFrac float64, seed int64) (*Partition, *Dataset) {
	trainShards := make([]*data.Dataset, len(p.Clients))
	testParts := make([]*data.Dataset, 0, len(p.Clients))
	for i, shard := range p.Clients {
		tr, te := shard.Split(trainFrac, randx.DeriveSeed(seed, int64(i)+9000))
		trainShards[i] = tr
		if te.N() > 0 {
			testParts = append(testParts, te)
		}
	}
	var test *data.Dataset
	if len(testParts) > 0 {
		test = data.Merge(testParts...)
	}
	return &data.Partition{Clients: trainShards}, test
}

// estimateSoftmaxL estimates the smoothness constant of the softmax loss
// from the data. The cross-entropy Hessian at sample x is bounded by
// ½‖x‖²; the empirical loss averages over samples, so the mean second
// moment is the effective constant (the worst-case max makes η = 1/(βL)
// uselessly small on heavy-tailed features — the paper, like practice,
// "estimates by sampling the real-world dataset").
func estimateSoftmaxL(p *Partition) float64 {
	var sumSq float64
	var n int
	for _, shard := range p.Clients {
		for i := 0; i < shard.N(); i++ {
			x := shard.Sample(i)
			var s float64
			for _, v := range x {
				s += v * v
			}
			sumSq += s
			n++
		}
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sumSq / float64(n) / 2
}
