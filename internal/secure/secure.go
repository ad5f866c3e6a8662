// Package secure implements single-round secure aggregation by pairwise
// additive masking (Bonawitz et al.-style, simplified): every pair of
// devices (n, m), n < m, shares a mask vector derived from a pairwise
// seed; device n ADDS the mask, device m SUBTRACTS it, so the server-side
// SUM of all submissions equals the sum of the raw updates while each
// individual submission is statistically masked. Mask entries are
// Gaussian with standard deviation 100 (maskScale).
//
// Weighted FedAvg aggregation Σ (D_n/D)·w_n is handled by having each
// device pre-scale its update by D_n before masking; the server divides
// the unmasked sum by D.
//
// Simplifications versus the full protocol, stated explicitly: pairwise
// seeds are derived from a shared experiment seed instead of a
// Diffie–Hellman exchange, and there is no dropout recovery — if any
// masked submission is missing, the sum is garbage (Aggregate requires
// all N submissions). These do not affect what the simulation studies:
// the server never observes an individual update in the clear.
package secure

import (
	"fmt"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
)

// Masker produces one device's masked submissions.
type Masker struct {
	ID        int // this device's id in [0, N)
	N         int // total device count
	Dim       int
	GroupSeed int64 // shared across the cohort (stands in for key agreement)
}

// maskScale is the standard deviation of mask entries, large relative to
// update magnitudes.
const maskScale = 100

// pairSeed derives the seed shared by devices a < b.
func pairSeed(groupSeed int64, a, b int) int64 {
	return randx.DeriveSeed(groupSeed, int64(a)*1_000_003+int64(b))
}

// Mask writes scale·w plus this device's pairwise masks into dst.
// dst must not alias w.
func (mk *Masker) Mask(dst, w []float64, scale float64) error {
	if mk.N < 2 {
		return fmt.Errorf("secure: need at least 2 devices, got %d", mk.N)
	}
	if mk.ID < 0 || mk.ID >= mk.N {
		return fmt.Errorf("secure: id %d outside [0,%d)", mk.ID, mk.N)
	}
	if len(dst) != mk.Dim || len(w) != mk.Dim {
		return fmt.Errorf("secure: dimension mismatch")
	}
	for i := range dst {
		dst[i] = scale * w[i]
	}
	mask := make([]float64, mk.Dim)
	for other := 0; other < mk.N; other++ {
		if other == mk.ID {
			continue
		}
		lo, hi := mk.ID, other
		sign := 1.0
		if lo > hi {
			lo, hi = hi, lo
			sign = -1.0 // the higher id subtracts the pair's mask
		}
		rng := randx.New(pairSeed(mk.GroupSeed, lo, hi))
		randx.NormalVec(rng, mask, 0, maskScale)
		mathx.Axpy(sign, mask, dst)
	}
	return nil
}

// Aggregate sums all N masked submissions (masks cancel exactly in
// floating point up to rounding) and divides by totalScale, recovering
// Σ scale_n·w_n / totalScale — the weighted average when scale_n = D_n and
// totalScale = D.
func Aggregate(masked [][]float64, totalScale float64) ([]float64, error) {
	if len(masked) < 2 {
		return nil, fmt.Errorf("secure: need all submissions (≥2), got %d", len(masked))
	}
	if totalScale == 0 {
		return nil, fmt.Errorf("secure: totalScale must be non-zero")
	}
	dim := len(masked[0])
	sum := make([]float64, dim)
	for i, m := range masked {
		if len(m) != dim {
			return nil, fmt.Errorf("secure: submission %d has dim %d, want %d", i, len(m), dim)
		}
		mathx.Axpy(1, m, sum)
	}
	mathx.Scal(1/totalScale, sum)
	return sum, nil
}

// Mean is the weighted mean of Algorithm 1's line 12 computed through
// pairwise masking, in the shape of the engine's Aggregator (install it
// with Engine.SetAggregator): every device pre-scales its model by its
// data share and adds its pairwise masks, and the server sums the masked
// submissions — the masks cancel, so the server recovers the weighted mean
// without ever observing an individual model in the clear. It needs every
// device every round: a round that lost one is refused, and the global
// model stays where it was.
type Mean struct {
	weights []float64
	maskers []*Masker
	masked  [][]float64
}

// NewMean builds one masker per device from a group seed derived from the
// experiment seed (standing in for pairwise key agreement). weights are the
// devices' data shares.
func NewMean(weights []float64, dim int, seed int64) *Mean {
	n := len(weights)
	group := randx.DeriveSeed(seed, 33)
	a := &Mean{
		weights: weights,
		maskers: make([]*Masker, n),
		masked:  make([][]float64, n),
	}
	for id := 0; id < n; id++ {
		a.maskers[id] = &Masker{ID: id, N: n, Dim: dim, GroupSeed: group}
		a.masked[id] = make([]float64, dim)
	}
	return a
}

// Aggregate folds the round's local models (locals[i] from device
// selected[i]) into w.
func (a *Mean) Aggregate(w []float64, selected []int, locals [][]float64) error {
	if len(selected) != len(a.maskers) {
		return fmt.Errorf("secure: secure aggregation needs all %d clients, got %d (absent clients' masks cannot cancel)",
			len(a.maskers), len(selected))
	}
	var total float64
	for _, id := range selected {
		total += a.weights[id]
	}
	for i, id := range selected {
		if err := a.maskers[id].Mask(a.masked[id], locals[i], a.weights[id]); err != nil {
			return err
		}
	}
	sum, err := Aggregate(a.masked, total)
	if err != nil {
		return err
	}
	copy(w, sum)
	return nil
}

// LeakageRatio measures how well a single masked submission hides its
// update: ‖masked − scale·w‖ / ‖scale·w‖. Values ≫ 1 mean the submission
// is dominated by mask, i.e. individually uninformative.
func LeakageRatio(masked, w []float64, scale float64) float64 {
	diff := make([]float64, len(w))
	for i := range diff {
		diff[i] = masked[i] - scale*w[i]
	}
	denom := mathx.Nrm2(w) * scale
	if denom == 0 {
		return mathx.Nrm2(diff)
	}
	return mathx.Nrm2(diff) / denom
}
