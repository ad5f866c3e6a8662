// Package simnet simulates the wall-clock behaviour of a federated
// deployment: per-device computation speeds, uplink/downlink delays, and
// stragglers. It turns the abstract delay constants of the paper's
// Section 4.3 (d_com, d_cmp, γ = d_cmp/d_com) into measurable per-round
// times, so the training-time minimization of problem (23) can be
// validated empirically (time-to-accuracy curves), not just numerically.
//
// The clock is simulated: a synchronous round costs the maximum over the
// participating devices of (downlink + compute·iterations + uplink),
// matching the paper's synchronous aggregation.
package simnet

import (
	"fmt"
	"math"
	"math/rand"

	"fedproxvr/internal/randx"
)

// DeviceProfile is one device's timing characteristics, in seconds.
type DeviceProfile struct {
	// ComputePerIter is the time of one local iteration (the paper's
	// d_cmp). One local iteration costs ComputePerIter regardless of
	// batch size, matching the paper's model 𝒯 = T(d_com + d_cmp·τ).
	ComputePerIter float64
	// Uplink and Downlink are per-round model-transfer delays; their sum
	// is the paper's d_com.
	Uplink, Downlink float64
	// Jitter is the coefficient of variation of a multiplicative
	// log-normal noise applied to every delay sample (0 = deterministic).
	Jitter float64
}

// DCom returns the device's round communication delay d_com.
func (p DeviceProfile) DCom() float64 { return p.Uplink + p.Downlink }

// Gamma returns the device's weight factor γ = d_cmp/d_com.
func (p DeviceProfile) Gamma() float64 {
	if p.DCom() == 0 {
		return 0
	}
	return p.ComputePerIter / p.DCom()
}

// Fleet is a set of device profiles plus a straggler model.
type Fleet struct {
	Profiles []DeviceProfile
	// StragglerFraction of devices in each round are slowed by
	// StragglerFactor (e.g. 0.1 and 5.0: 10% of devices run 5× slower) —
	// the systems-heterogeneity FL papers motivate.
	StragglerFraction float64
	StragglerFactor   float64

	rng *rand.Rand
}

// NewUniformFleet builds n devices sharing one profile.
func NewUniformFleet(n int, p DeviceProfile, seed int64) *Fleet {
	profiles := make([]DeviceProfile, n)
	for i := range profiles {
		profiles[i] = p
	}
	return &Fleet{Profiles: profiles, rng: randx.NewStream(seed, 4242)}
}

// NewHeterogeneousFleet builds n devices whose compute speeds are spread
// log-uniformly over [p.ComputePerIter, spread·p.ComputePerIter].
func NewHeterogeneousFleet(n int, p DeviceProfile, spread float64, seed int64) *Fleet {
	if spread < 1 {
		spread = 1
	}
	rng := randx.NewStream(seed, 4242)
	profiles := make([]DeviceProfile, n)
	for i := range profiles {
		q := p
		q.ComputePerIter *= math.Pow(spread, rng.Float64())
		profiles[i] = q
	}
	return &Fleet{Profiles: profiles, rng: rng}
}

// RoundTime returns the simulated duration of one synchronous round where
// the devices in participants each run tau local iterations: the max over
// devices of downlink + tau·compute + uplink, with jitter and stragglers.
func (f *Fleet) RoundTime(participants []int, tau int) float64 {
	var worst float64
	for _, id := range participants {
		p := f.Profiles[id]
		t := p.Downlink + float64(tau)*p.ComputePerIter + p.Uplink
		if p.Jitter > 0 {
			t *= randx.LogNormal(f.rng, 0, p.Jitter)
		}
		if f.StragglerFraction > 0 && f.rng.Float64() < f.StragglerFraction {
			t *= f.StragglerFactor
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// Validate reports nonsensical profiles.
func (f *Fleet) Validate() error {
	if len(f.Profiles) == 0 {
		return fmt.Errorf("simnet: empty fleet")
	}
	for i, p := range f.Profiles {
		if p.ComputePerIter < 0 || p.Uplink < 0 || p.Downlink < 0 || p.Jitter < 0 {
			return fmt.Errorf("simnet: device %d has negative delay", i)
		}
	}
	if f.StragglerFraction < 0 || f.StragglerFraction > 1 {
		return fmt.Errorf("simnet: straggler fraction %v outside [0,1]", f.StragglerFraction)
	}
	if f.StragglerFraction > 0 && f.StragglerFactor < 1 {
		return fmt.Errorf("simnet: straggler factor %v must be ≥ 1", f.StragglerFactor)
	}
	return nil
}
