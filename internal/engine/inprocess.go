package engine

import (
	"fmt"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
)

// NewInProcess builds the in-process run of Algorithm 1 over a partition:
// one Device per shard (device i trains shard i, all of them model m), the
// Parallel pool or the Sequential executor over them as cfg.Parallel says,
// and an Evaluator over the shards and cfg.Test that hands the devices
// their next round's v⁰ (Evaluator.Measure). w0, when non-nil, is the
// initial global model and must hold m.Dim() entries; nil starts from the
// zero vector. It returns the engine and its devices.
//
// A Parallel engine owns a worker pool. Close stops it; an engine dropped
// without Close has its pool reaped by a finalizer.
func NewInProcess(m models.Model, part *data.Partition, cfg Config, w0 []float64) (*Engine, []*Device, error) {
	if len(part.Clients) == 0 {
		return nil, nil, ErrNoClients
	}
	if w0 != nil && len(w0) != m.Dim() {
		return nil, nil, fmt.Errorf("engine: initial model has %d entries, the model has %d parameters", len(w0), m.Dim())
	}
	weights := part.Weights()
	// The engine validates cfg before any pool starts, so a rejected config
	// leaves nothing running.
	eng, err := New(cfg, m.Dim(), weights, nil)
	if err != nil {
		return nil, nil, err
	}
	devices := make([]*Device, len(part.Clients))
	for i, shard := range part.Clients {
		devices[i] = NewDevice(i, shard, m, cfg.Seed)
	}
	if cfg.Parallel {
		eng.pool = NewParallel(devices, cfg.Local, 0)
		eng.exec = eng.pool
	} else {
		eng.exec = NewSequential(devices, cfg.Local)
	}
	eng.eval = &Evaluator{Model: m.Clone(), Clients: part.Clients, Weights: weights, Test: cfg.Test, Devices: devices}
	if w0 != nil {
		eng.SetGlobal(w0)
	}
	return eng, devices, nil
}

// Close stops the worker pool NewInProcess started for cfg.Parallel, whatever
// executor is installed now. It is idempotent, and a no-op for every other
// engine.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
	}
}
