package engine

import (
	"fmt"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
)

// NewInProcess builds the in-process run of Algorithm 1 over a partition:
// one Device per shard (device i trains shard i, all of them model m), the
// Parallel or the Sequential executor over them as cfg.Parallel says,
// and an Evaluator over the shards and cfg.Test that hands the devices
// their next round's v⁰ (Evaluator.Measure). w0, when non-nil, is the
// initial global model and must hold m.Dim() entries; nil starts from the
// zero vector. It returns the engine and its devices.
func NewInProcess(m models.Model, part *data.Partition, cfg Config, w0 []float64) (*Engine, []*Device, error) {
	if len(part.Clients) == 0 {
		return nil, nil, ErrNoClients
	}
	if w0 != nil && len(w0) != m.Dim() {
		return nil, nil, fmt.Errorf("engine: initial model has %d entries, the model has %d parameters", len(w0), m.Dim())
	}
	weights := part.Weights()
	eng, err := New(cfg, m.Dim(), weights, nil)
	if err != nil {
		return nil, nil, err
	}
	devices := make([]*Device, len(part.Clients))
	for i, shard := range part.Clients {
		devices[i] = NewDevice(i, shard, m, cfg.Seed)
	}
	if cfg.Parallel {
		eng.exec = NewParallel(devices, cfg.Local)
	} else {
		eng.exec = NewSequential(devices, cfg.Local)
	}
	eng.eval = &Evaluator{Model: m.Clone(), Clients: part.Clients, Weights: weights, Test: cfg.Test, Devices: devices}
	if w0 != nil {
		eng.SetGlobal(w0)
	}
	return eng, devices, nil
}
