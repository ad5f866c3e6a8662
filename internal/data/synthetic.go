package data

import (
	"math"
	"math/rand"
	"runtime"

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
// features and C = 10 classes. Alpha controls how much local models
// differ; Beta controls how much local feature distributions differ.
// Alpha = Beta = 0 gives the IID control.
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

// GenerateSynthetic builds the federated Synthetic(α, β) dataset: one shard
// per device, each drawn from that device's own model, plus nothing shared.
// The result is deterministic given cfg.Seed. The sizes are drawn first, on
// the root stream; then every device is one task of a fan-out over the
// process-wide helper pool and draws only from its own stream
// (randx.NewStream(cfg.Seed, k+1)) into its own shard, so the shards are
// the same bits at any GOMAXPROCS. When no helper is parked (called from
// inside another fan-out's task, say) it generates every device on its
// caller.
func GenerateSynthetic(cfg SyntheticConfig) *Partition {
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

	// Every shard's rows are cut from one allocation for all of them.
	total := 0
	for _, n := range sizes {
		total += n
	}
	xs, ys := make([]float64, total*syntheticDim), make([]int, total)
	p := &Partition{Clients: make([]*Dataset, cfg.NumDevices)}
	for k, n := range sizes {
		p.Clients[k] = &Dataset{Dim: syntheticDim, NumClasses: syntheticClasses, X: xs[: n*syntheticDim : n*syntheticDim], Y: ys[:n:n]}
		xs, ys = xs[n*syntheticDim:], ys[n:]
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
		// Reseeded, the slot's generator draws what randx.NewStream(cfg.Seed, k+1) would.
		sc.rng.Seed(randx.DeriveSeed(cfg.Seed, int64(k)+1))
		sc.fill(p.Clients[k], cfg, sigma)
	})
	return p
}

// syntheticScratch is one pool slot's generator and device-model memory,
// reused by every device the slot generates.
type syntheticScratch struct {
	rng     *rand.Rand
	w, b, v []float64 // device model W_k, b_k and feature mean v_k
	logits  []float64
}

// fill draws a device's model and feature mean from sc.rng, then the
// device's samples, written straight into shard's rows.
func (sc *syntheticScratch) fill(shard *Dataset, cfg SyntheticConfig, sigma []float64) {
	rng := sc.rng
	uk := math.Sqrt(cfg.Alpha) * rng.NormFloat64()
	bk := math.Sqrt(cfg.Beta) * rng.NormFloat64()
	randx.NormalVec(rng, sc.w, uk, 1)
	randx.NormalVec(rng, sc.b, uk, 1)
	randx.NormalVec(rng, sc.v, bk, 1)
	for i := range shard.Y {
		x := shard.Sample(i)
		for j := range x {
			x[j] = sc.v[j] + sigma[j]*rng.NormFloat64()
		}
		for c := range sc.logits {
			sc.logits[c] = sc.b[c] + mathx.Dot(sc.w[c*syntheticDim:(c+1)*syntheticDim], x)
		}
		shard.Y[i] = mathx.ArgMax(sc.logits)
	}
}
