package data

import (
	"math"
	"math/rand"
	"runtime"
	"slices"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
)

// SyntheticConfig parametrizes the Synthetic(α, β) heterogeneous dataset of
// Li et al. (FedProx), which the paper reuses ("a Synthetic dataset that
// captures the statistical heterogeneity as in [16, 26]").
//
// For each device k the generator draws a device-specific softmax model
//
//	W_k ∈ R^{C×d}, b_k ∈ R^C  with  W_k,ij ~ N(u_k, 1), b_k,i ~ N(u_k, 1),
//	u_k ~ N(0, α)
//
// and device-specific features
//
//	x ~ N(v_k·1, Σ), Σ_jj = j^{-1.2},  v_k,j ~ N(B_k, 1), B_k ~ N(0, β)
//
// with labels y = argmax softmax(W_k x + b_k), at FedProx's shape: d = 60
// features and C = 10 classes. Beta controls how much local feature
// distributions differ. Alpha, which FedProx calls model heterogeneity,
// changes no sample: W_k and b_k are u_k plus standard-normal draws that
// do not depend on α, so u_k adds the same u_k·(1 + Σ_j x_j) to every
// class's logit, the argmax does not move (short of rounding at a near
// tie), and the features never see α. Synthetic(α, β) therefore varies
// with β alone; FedProx's generator (arXiv:1812.06127) has the same form.
// Nor is α = β = 0 an IID control: each device still draws its own
// feature mean v_k ~ N(0, 1) and labels by its own W_k.
type SyntheticConfig struct {
	NumDevices int
	Alpha      float64
	Beta       float64
	MinSamples int
	MaxSamples int
	Seed       int64
}

// The Synthetic(α, β) shape: features d and classes C.
const (
	syntheticDim     = 60
	syntheticClasses = 10
)

// Every device trains on int(0.75·n) of its n samples and holds the rest
// out for the test set (the paper splits 75/25). Device k's split is
// Dataset.Split(syntheticTrainFrac, randx.DeriveSeed(Seed, k+splitStream))
// of its samples in drawing order.
const (
	syntheticTrainFrac = 0.75
	splitStream        = 9000
)

// GenerateSynthetic builds the federated Synthetic(α, β) dataset: one
// training shard per device, each drawn from that device's own model, and
// one test set of every device's held-out rows, in device order. Each
// sample is written once, straight to the row the device's split would
// move it to, in one allocation: every training row, device by device,
// then the test set. The shards and the test set are views of it.
//
// The result is deterministic given cfg.Seed. The sizes are drawn first,
// on the root stream; then every device is one task of a fan-out over the
// process-wide helper pool and draws only from its own streams
// (randx.NewStream(cfg.Seed, k+1) for its samples, and the split's) into
// its own rows, so the data are the same bits at any GOMAXPROCS. When no
// helper is parked (called from inside another fan-out's task, say) it
// generates every device on its caller. The test set is nil when no
// device holds a row out.
func GenerateSynthetic(cfg SyntheticConfig) (train *Partition, test *Dataset) {
	if cfg.NumDevices <= 0 {
		panic("data: invalid SyntheticConfig")
	}
	root := randx.New(cfg.Seed)
	sizes := randx.PowerLawSizes(root, cfg.NumDevices, sizePowerLaw, cfg.MinSamples, cfg.MaxSamples)

	// Diagonal feature covariance Σ_jj = j^{-1.2} (1-indexed).
	sigma := make([]float64, syntheticDim)
	for j := range sigma {
		sigma[j] = math.Pow(float64(j+1), -0.6) // stddev = sqrt(j^-1.2)
	}

	total, trainRows := 0, 0
	cuts := make([]int, len(sizes))
	for k, n := range sizes {
		cuts[k] = int(syntheticTrainFrac * float64(n))
		total += n
		trainRows += cuts[k]
	}
	all := &Dataset{Dim: syntheticDim, NumClasses: syntheticClasses,
		X: make([]float64, total*syntheticDim), Y: make([]int, total)}
	train = &Partition{Clients: make([]*Dataset, cfg.NumDevices)}
	held := make([]*Dataset, cfg.NumDevices)
	tr, te := 0, trainRows
	for k, n := range sizes {
		train.Clients[k], held[k] = all.view(tr, tr+cuts[k]), all.view(te, te+n-cuts[k])
		tr, te = tr+cuts[k], te+n-cuts[k]
	}
	workers := runtime.GOMAXPROCS(0)
	slots := make([]*syntheticScratch, workers)
	var fan tensor.Fan
	fan.Run(cfg.NumDevices, workers, func(slot, k int) {
		sc := slots[slot]
		if sc == nil {
			sc = &syntheticScratch{
				rng:    randx.New(0),
				w:      make([]float64, syntheticClasses*syntheticDim),
				b:      make([]float64, syntheticClasses),
				v:      make([]float64, syntheticDim),
				logits: make([]float64, syntheticClasses),
			}
			slots[slot] = sc
		}
		sc.fill(train.Clients[k], held[k], cfg, sigma, k)
	})
	if trainRows == total {
		return train, nil
	}
	return train, all.view(trainRows, total)
}

// syntheticScratch is one pool slot's generator and device-model memory,
// reused by every device the slot generates.
type syntheticScratch struct {
	rng     *rand.Rand
	w, b, v []float64 // device model W_k, b_k and feature mean v_k
	logits  []float64
	row     []int // row[i]: where device sample i goes in train, then held
}

// fill draws device k's model and feature mean, then its samples, each
// written straight into its row of train (the first rows) or held (the
// rest), as GenerateSynthetic places them. The slot's generator is
// reseeded to draw what a fresh randx.New of each stream's seed would.
func (sc *syntheticScratch) fill(train, held *Dataset, cfg SyntheticConfig, sigma []float64, k int) {
	rng := sc.rng
	cut, n := train.N(), train.N()+held.N()
	rng.Seed(randx.DeriveSeed(cfg.Seed, int64(k)+splitStream))
	sc.row = slices.Grow(sc.row[:0], n)[:n]
	for j, i := range rng.Perm(n) {
		sc.row[i] = j
	}
	rng.Seed(randx.DeriveSeed(cfg.Seed, int64(k)+1))
	uk := math.Sqrt(cfg.Alpha) * rng.NormFloat64()
	bk := math.Sqrt(cfg.Beta) * rng.NormFloat64()
	randx.NormalVec(rng, sc.w, uk, 1)
	randx.NormalVec(rng, sc.b, uk, 1)
	randx.NormalVec(rng, sc.v, bk, 1)
	for _, j := range sc.row {
		shard := train
		if j >= cut {
			shard, j = held, j-cut
		}
		x := shard.Sample(j)
		for d := range x {
			x[d] = sc.v[d] + sigma[d]*rng.NormFloat64()
		}
		for c := range sc.logits {
			sc.logits[c] = sc.b[c] + mathx.Dot(sc.w[c*syntheticDim:(c+1)*syntheticDim], x)
		}
		shard.Y[j] = mathx.ArgMax(sc.logits)
	}
}
