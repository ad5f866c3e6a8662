package data

import (
	"fmt"
	"sort"

	"fedproxvr/internal/randx"
)

// PartitionConfig controls the non-IID federated split used by the paper's
// experiments: per-device sample counts drawn from a power law of exponent
// 1.5, and each device restricted to two distinct labels ("each device
// contains only two different labels over 10 labels").
type PartitionConfig struct {
	NumDevices int
	MinSamples int // lower end of the per-device size range
	MaxSamples int // upper end of the per-device size range
	Seed       int64
}

// The paper's label skew: labels per device, and the power-law exponent of
// the device sizes (the Synthetic(α, β) devices' sizes too).
const (
	labelsPerDevice = 2
	sizePowerLaw    = 1.5
)

// Partition is a federated dataset: one shard per device.
type Partition struct {
	Clients []*Dataset
}

// TotalSamples returns Σ_n D_n.
func (p *Partition) TotalSamples() int {
	total := 0
	for _, c := range p.Clients {
		total += c.N()
	}
	return total
}

// Weights returns the aggregation weights D_n/D from problem (2).
func (p *Partition) Weights() []float64 {
	total := p.TotalSamples()
	w := make([]float64, len(p.Clients))
	for i, c := range p.Clients {
		w[i] = float64(c.N()) / float64(total)
	}
	return w
}

// SizeRange returns the min and max per-device sample counts.
func (p *Partition) SizeRange() (min, max int) {
	if len(p.Clients) == 0 {
		return 0, 0
	}
	min, max = p.Clients[0].N(), p.Clients[0].N()
	for _, c := range p.Clients[1:] {
		if n := c.N(); n < min {
			min = n
		} else if n > max {
			max = n
		}
	}
	return min, max
}

// PartitionByLabel splits a classification dataset across devices so that
// each device sees only labelsPerDevice labels and device sizes follow
// a power law. Samples of each label form a pool; devices draw from their
// assigned labels' pools round-robin, wrapping (re-using samples) only when
// a pool is exhausted, so small corpora still yield the requested sizes.
func PartitionByLabel(d *Dataset, cfg PartitionConfig) (*Partition, error) {
	if d.NumClasses == 0 {
		return nil, fmt.Errorf("data: PartitionByLabel requires a classification dataset")
	}
	if cfg.NumDevices <= 0 {
		return nil, fmt.Errorf("data: NumDevices must be positive, got %d", cfg.NumDevices)
	}
	rng := randx.New(cfg.Seed)

	// Build shuffled per-label index pools.
	pools := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		pools[y] = append(pools[y], i)
	}
	for _, pool := range pools {
		randx.Shuffle(rng, pool)
	}
	for label, pool := range pools {
		if len(pool) == 0 {
			return nil, fmt.Errorf("data: label %d has no samples", label)
		}
	}
	cursors := make([]int, d.NumClasses)
	draw := func(label int) int {
		pool := pools[label]
		i := pool[cursors[label]%len(pool)]
		cursors[label]++
		return i
	}

	sizes := randx.PowerLawSizes(rng, cfg.NumDevices, sizePowerLaw, cfg.MinSamples, cfg.MaxSamples)

	p := &Partition{Clients: make([]*Dataset, cfg.NumDevices)}
	for n := 0; n < cfg.NumDevices; n++ {
		// Cycle label assignments so all labels are covered across devices.
		var labels [labelsPerDevice]int
		for j := range labels {
			labels[j] = (n*labelsPerDevice + j) % d.NumClasses
		}
		shard := New(d.Dim, d.NumClasses, sizes[n])
		for i := 0; i < sizes[n]; i++ {
			label := labels[i%len(labels)]
			src := draw(label)
			shard.AppendClass(d.Sample(src), d.Y[src])
		}
		p.Clients[n] = shard
	}
	return p, nil
}

// DistinctLabels returns the sorted set of labels present in a shard.
func DistinctLabels(d *Dataset) []int {
	seen := map[int]bool{}
	for _, y := range d.Y {
		seen[y] = true
	}
	out := make([]int, 0, len(seen))
	for y := range seen {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}
