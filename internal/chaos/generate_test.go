package chaos

import (
	"fmt"
	"time"

	"fedproxvr/internal/randx"
)

// GenConfig parameterizes Generate. Probabilities are per device per
// round and are evaluated in a fixed order (crash, flake, delay, corrupt,
// partition), so the same seed always yields the same schedule.
type GenConfig struct {
	Seed    int64
	Devices int
	Rounds  int

	PCrash, PFlake, PDelay, PCorrupt, PPartition float64

	// Delay is the lateness assigned to delay events (default 5ms).
	Delay time.Duration
	// Scale is the corruption stddev (default 0.1 — perturb, don't destroy).
	Scale float64
	// PartitionLen is the partition length in rounds (default 2).
	PartitionLen int
}

// Generate draws a random schedule from the config, deterministically in
// the seed: the fault plans of the generated-schedule soak (TestChaosSoak).
// The result is validated and ready for concurrent use.
func Generate(g GenConfig) (*Schedule, error) {
	if g.Devices < 1 || g.Rounds < 1 {
		return nil, fmt.Errorf("chaos: Generate needs devices ≥ 1 and rounds ≥ 1")
	}
	if g.Delay <= 0 {
		g.Delay = 5 * time.Millisecond
	}
	if g.Scale <= 0 {
		g.Scale = 0.1
	}
	if g.PartitionLen < 1 {
		g.PartitionLen = 2
	}
	rng := randx.NewStream(g.Seed, 77)
	s := &Schedule{Seed: g.Seed}
	for dev := 0; dev < g.Devices; dev++ {
		for t := 1; t <= g.Rounds; t++ {
			u := rng.Float64()
			switch {
			case u < g.PCrash:
				s.Events = append(s.Events, Event{Device: dev, Round: t, Kind: Crash})
			case u < g.PCrash+g.PFlake:
				s.Events = append(s.Events, Event{Device: dev, Round: t, Kind: Flake})
			case u < g.PCrash+g.PFlake+g.PDelay:
				s.Events = append(s.Events, Event{Device: dev, Round: t, Kind: Delay,
					DelayMS: float64(g.Delay) / float64(time.Millisecond)})
			case u < g.PCrash+g.PFlake+g.PDelay+g.PCorrupt:
				s.Events = append(s.Events, Event{Device: dev, Round: t, Kind: Corrupt, Scale: g.Scale})
			case u < g.PCrash+g.PFlake+g.PDelay+g.PCorrupt+g.PPartition:
				until := t + g.PartitionLen
				if until > g.Rounds+1 {
					until = g.Rounds + 1
				}
				s.Events = append(s.Events, Event{Device: dev, Round: t, Kind: Partition, Until: until})
				t = until - 1 // the device is out until then; no overlapping events
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
