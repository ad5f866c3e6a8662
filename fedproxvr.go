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
	"fmt"

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

// SyntheticOptions controls SyntheticTask. A zero Alpha or Beta means its
// default 1, so Synthetic(0, 0) cannot be asked for; only Beta changes
// the data.
type SyntheticOptions struct {
	Devices    int     // default 100 (paper)
	Alpha      float64 // FedProx's model heterogeneity, default 1; changes no sample (see data.SyntheticConfig)
	Beta       float64 // feature heterogeneity, default 1
	MinSamples int     // default 37 (paper range)
	MaxSamples int     // default 3277
	Seed       int64
}

// SyntheticTask builds the paper's "Synthetic" convex experiment: the
// FedProx-style Synthetic(α,β) dataset with a multinomial logistic
// regression model. 25% of every device's samples are held out into the
// global test set (the paper splits 75/25), as data.GenerateSynthetic
// generates them.
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
		Alpha:      o.Alpha,
		Beta:       o.Beta,
		MinSamples: o.MinSamples,
		MaxSamples: o.MaxSamples,
		Seed:       o.Seed,
	}
	train, test := data.GenerateSynthetic(cfg)
	return Task{
		Model: models.NewSoftmax(60, 10),
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
	Devices         int // default 100 for ImageTask (convex), 10 for CNNTask
	SamplesPerClass int // total per class before the split; default 300
	MinSamples      int // default 40
	MaxSamples      int // default 400
	Seed            int64
}

// ImageTask builds a federated image-classification task on procedural
// 28×28 images with the paper's label-skew partition (2 labels/device,
// power-law sizes) and a multinomial logistic regression model. Use
// CNNTask for the non-convex counterpart.
func ImageTask(o ImageOptions) (Task, error) {
	part, test, err := imageData(imageDefaults(o))
	if err != nil {
		return Task{}, err
	}
	return Task{
		Model: models.NewSoftmax(data.ImageDim, imageClasses),
		Part:  part,
		Test:  test,
		L:     estimateSoftmaxL(part),
	}, nil
}

// CNNTask builds the paper's non-convex task: the two-layer CNN on
// procedural digit images, on 10 devices unless o.Devices asks for another
// count (the paper reduces the device count for CNN cost reasons).
// widthDivisor > 1 thins the CNN for fast runs (1 = the paper's
// 32/64-channel network).
func CNNTask(o ImageOptions, widthDivisor int) (Task, error) {
	if o.Devices == 0 {
		o.Devices = 10
	}
	o = imageDefaults(o)
	part, test, err := imageData(o)
	if err != nil {
		return Task{}, err
	}
	m := models.NewPaperCNN(imageClasses, widthDivisor)
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

// The image corpus holds SamplesPerClass rows of each of imageClasses
// classes, row i of label i mod imageClasses, and imageData holds out the
// rows after the first imageTrainFrac of the split's permutation.
const (
	imageClasses   = 10
	imageTrainFrac = 0.75
)

// imageData generates the image corpus, holds out a quarter of it and
// partitions the rest across the devices with the paper's label skew. The
// held-out rows are copied out of the corpus, which is garbage once the
// devices have their shards.
func imageData(o ImageOptions) (*Partition, *Dataset, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	gen := data.NewImageGenerator(data.ImageConfig{Style: o.Style, Seed: o.Seed})
	full := gen.Generate(o.SamplesPerClass*imageClasses, 0)
	train, test := full.Split(imageTrainFrac, o.splitSeed())
	part, err := data.PartitionByLabel(train, data.PartitionConfig{
		NumDevices: o.Devices,
		MinSamples: o.MinSamples,
		MaxSamples: o.MaxSamples,
		Seed:       o.Seed + 2,
	})
	if err != nil {
		return nil, nil, err
	}
	return part, data.Merge(test), nil
}

func (o ImageOptions) splitSeed() int64 { return o.Seed + 1 }

// Validate returns the error ImageTask and CNNTask give for o, without
// generating an image: a negative count, or a label none of whose rows
// survives the hold-out.
// Which rows are held out depends only on the corpus size and the seed,
// and a row's label only on its index, so no pixel is needed.
func (o ImageOptions) Validate() error {
	o = imageDefaults(o)
	if o.SamplesPerClass < 0 {
		return fmt.Errorf("fedproxvr: SamplesPerClass must be ≥ 0 (0 = default), got %d", o.SamplesPerClass)
	}
	if o.Devices < 0 {
		return fmt.Errorf("fedproxvr: Devices must be ≥ 0 (0 = default), got %d", o.Devices)
	}
	n := o.SamplesPerClass * imageClasses
	var kept [imageClasses]bool
	for _, i := range randx.New(o.splitSeed()).Perm(n)[:int(imageTrainFrac*float64(n))] {
		kept[i%imageClasses] = true
	}
	for label, ok := range kept {
		if !ok {
			return fmt.Errorf("fedproxvr: no training sample of label %d survives the hold-out of %d samples per class", label, o.SamplesPerClass)
		}
	}
	return nil
}

func imageDefaults(o ImageOptions) ImageOptions {
	if o.Devices == 0 {
		o.Devices = 100
	}
	if o.SamplesPerClass == 0 {
		o.SamplesPerClass = 300
	}
	if o.MinSamples == 0 {
		o.MinSamples = 40
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 400
	}
	return o
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
