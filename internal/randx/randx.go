// Package randx provides deterministic, splittable random-number utilities
// for reproducible federated-learning experiments: every device, dataset and
// algorithm run draws from an independently seeded stream derived from a
// single experiment seed, so runs are bit-for-bit repeatable regardless of
// goroutine scheduling.
package randx

import (
	"math"
	"math/rand"
)

// splitMix64 advances a 64-bit state and returns a well-mixed value. It is
// used only for deriving independent sub-seeds, never for sampling.
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives an independent sub-seed from a parent
// seed and a stream index. Distinct (seed, stream) pairs yield decorrelated
// generators.
func DeriveSeed(seed int64, stream int64) int64 {
	h := splitMix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream))
	return int64(h)
}

// ActivationUniform returns the deterministic Uniform[0,1) draw that decides
// whether device `id` activates in round `round` of a run seeded with `seed`.
// It is a counter-based hash, not a stream: no generator state is consumed,
// so any node in an aggregation tree — root or shard — can evaluate the same
// (seed, round, id) triple independently and agree on the active cohort
// without coordination or affecting the devices' private RNG streams.
func ActivationUniform(seed int64, round, id int) float64 {
	z := splitMix64(uint64(seed))
	z = splitMix64(z ^ uint64(int64(round))*0x9e3779b97f4a7c15)
	z = splitMix64(z ^ uint64(int64(id))*0xbf58476d1ce4e5b9)
	return float64(z>>11) / (1 << 53)
}

// RoundSeed derives the deterministic reseed value for stream `stream` at
// global round `round` of a run seeded with `seed`. Like ActivationUniform
// it is a counter-based hash — no generator state is consumed — so any
// process (coordinator, worker, aggregation-tree shard, or a restarted
// coordinator resuming a job from its checkpoint) computes the identical
// value independently. This is the primitive behind bit-identical crash
// recovery: a stream reseeded from (seed, stream, round) at every round
// boundary carries no history, so round t's draws are the same whether
// rounds 1..t-1 ran in this process or a previous incarnation. The domain
// constant decorrelates the hash from ActivationUniform at equal
// (seed, round, id) inputs.
func RoundSeed(seed, stream, round int64) int64 {
	z := splitMix64(uint64(seed) ^ 0x5bf03635dcd54e45)
	z = splitMix64(z ^ uint64(round)*0x9e3779b97f4a7c15)
	z = splitMix64(z ^ uint64(stream)*0xbf58476d1ce4e5b9)
	return int64(z)
}

// sm64Source is a rand.Source64 over the splitMix64 sequence. Unlike
// rand.NewSource's additive lagged-Fibonacci generator — whose Seed
// recomputes a 607-word table — reseeding is O(1), which lets every device
// reseed its stream at every round boundary without measurable cost (see
// engine.Device.BeginRound and BenchmarkEngineRoundAllocs).
type sm64Source struct{ state uint64 }

// Seed implements rand.Source.
func (s *sm64Source) Seed(seed int64) { s.state = uint64(seed) }

// Int63 implements rand.Source.
func (s *sm64Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Uint64 implements rand.Source64: one splitMix64 step.
func (s *sm64Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSeedable returns a rand.Rand over an O(1)-reseed splitMix64 source,
// for streams that are re-keyed every round via RoundSeed.
func NewSeedable(seed int64) *rand.Rand {
	s := &sm64Source{}
	s.Seed(seed)
	return rand.New(s)
}

// New returns a rand.Rand seeded with seed.
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewStream returns a rand.Rand for sub-stream `stream` of `seed`.
func NewStream(seed, stream int64) *rand.Rand { return New(DeriveSeed(seed, stream)) }

// NormalVec fills dst with i.i.d. N(mean, stddev²) samples.
func NormalVec(rng *rand.Rand, dst []float64, mean, stddev float64) {
	for i := range dst {
		dst[i] = mean + stddev*rng.NormFloat64()
	}
}

// LogNormal draws one sample of exp(N(mu, sigma²)).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// PowerLawSizes draws n device sample counts following a power-law (Pareto)
// distribution scaled into [min, max], mimicking the highly skewed per-device
// data volumes used by FedProx and this paper ("each of the devices has a
// different sample size, generated according to the power law").
// alpha > 0 controls the skew (smaller alpha → heavier tail).
func PowerLawSizes(rng *rand.Rand, n int, alpha float64, min, max int) []int {
	if n <= 0 {
		return nil
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	sizes := make([]int, n)
	span := float64(max - min)
	for i := range sizes {
		// Inverse-CDF sampling of a bounded Pareto on [1, ratio].
		u := rng.Float64()
		// x in [0,1], density ∝ (1-u)^(1/alpha) concentrated near 0.
		x := math.Pow(u, 1/alpha)
		sizes[i] = min + int(span*(1-x))
	}
	return sizes
}

// ChoiceWithout returns k distinct indices drawn uniformly from [0, n).
// Panics if k > n.
func ChoiceWithout(rng *rand.Rand, n, k int) []int {
	if k > n {
		panic("randx: ChoiceWithout k > n")
	}
	perm := rng.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// Batch fills dst with len(dst) indices drawn uniformly (with replacement)
// from [0, n). This is the mini-batch sampler used by the inner loop of
// Algorithm 1 ("uniformly randomly pick (x_it, y_it) ∈ D_n").
func Batch(rng *rand.Rand, dst []int, n int) {
	for i := range dst {
		dst[i] = rng.Intn(n)
	}
}

// Shuffle permutes xs in place.
func Shuffle(rng *rand.Rand, xs []int) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
