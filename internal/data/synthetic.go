package data

import (
	"math"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
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
// with labels y = argmax softmax(W_k x + b_k). Alpha controls how much
// local models differ; Beta controls how much local feature distributions
// differ. Alpha = Beta = 0 gives the IID control.
type SyntheticConfig struct {
	NumDevices int
	Dim        int // feature dimension d (paper/FedProx use 60)
	NumClasses int // C (10)
	Alpha      float64
	Beta       float64
	MinSamples int
	MaxSamples int
	Seed       int64
}

// GenerateSynthetic builds the federated Synthetic(α, β) dataset: one shard
// per device, each drawn from that device's own model, plus nothing shared.
// The result is deterministic given cfg.Seed.
func GenerateSynthetic(cfg SyntheticConfig) *Partition {
	if cfg.NumDevices <= 0 || cfg.Dim <= 0 || cfg.NumClasses <= 1 {
		panic("data: invalid SyntheticConfig")
	}
	root := randx.New(cfg.Seed)
	sizes := randx.PowerLawSizes(root, cfg.NumDevices, 1.5, cfg.MinSamples, cfg.MaxSamples)

	// Diagonal feature covariance Σ_jj = j^{-1.2} (1-indexed).
	sigma := make([]float64, cfg.Dim)
	for j := range sigma {
		sigma[j] = math.Pow(float64(j+1), -0.6) // stddev = sqrt(j^-1.2)
	}

	p := &Partition{Clients: make([]*Dataset, cfg.NumDevices)}
	logits := make([]float64, cfg.NumClasses)
	for k := 0; k < cfg.NumDevices; k++ {
		rng := randx.NewStream(cfg.Seed, int64(k)+1)

		uk := math.Sqrt(cfg.Alpha) * rng.NormFloat64()
		bk := math.Sqrt(cfg.Beta) * rng.NormFloat64()

		// Device model.
		w := make([]float64, cfg.NumClasses*cfg.Dim)
		randx.NormalVec(rng, w, uk, 1)
		b := make([]float64, cfg.NumClasses)
		randx.NormalVec(rng, b, uk, 1)

		// Device feature mean.
		v := make([]float64, cfg.Dim)
		randx.NormalVec(rng, v, bk, 1)

		shard := New(cfg.Dim, cfg.NumClasses, sizes[k])
		x := make([]float64, cfg.Dim)
		for i := 0; i < sizes[k]; i++ {
			for j := range x {
				x[j] = v[j] + sigma[j]*rng.NormFloat64()
			}
			for c := 0; c < cfg.NumClasses; c++ {
				logits[c] = b[c] + mathx.Dot(w[c*cfg.Dim:(c+1)*cfg.Dim], x)
			}
			shard.AppendClass(x, mathx.ArgMax(logits))
		}
		p.Clients[k] = shard
	}
	return p
}
