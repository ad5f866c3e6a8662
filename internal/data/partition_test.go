package data

import (
	"math"
	"testing"
)

func TestPartitionByLabelInvariants(t *testing.T) {
	d := makeToyClassification(2000, 5, 10, 1)
	cfg := PartitionConfig{
		NumDevices:      100,
		LabelsPerDevice: 2,
		MinSamples:      37,
		MaxSamples:      327,
		Seed:            9,
	}
	p, err := PartitionByLabel(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clients) != 100 {
		t.Fatalf("got %d clients", len(p.Clients))
	}
	labelCover := map[int]bool{}
	for n, shard := range p.Clients {
		if shard.N() < 37 || shard.N() > 327 {
			t.Fatalf("device %d has %d samples, outside [37,327]", n, shard.N())
		}
		labels := DistinctLabels(shard)
		if len(labels) > 2 {
			t.Fatalf("device %d has %d labels, want ≤2", n, len(labels))
		}
		for _, l := range labels {
			labelCover[l] = true
		}
	}
	if len(labelCover) != 10 {
		t.Fatalf("only %d labels covered across devices", len(labelCover))
	}
	// Weights sum to 1.
	var sum float64
	for _, w := range p.Weights() {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	if p.TotalSamples() == 0 {
		t.Fatal("no samples")
	}
}

func TestPartitionByLabelDeterministic(t *testing.T) {
	d := makeToyClassification(500, 3, 10, 2)
	cfg := PartitionConfig{NumDevices: 10, LabelsPerDevice: 2, MinSamples: 10, MaxSamples: 50, Seed: 3}
	p1, err := PartitionByLabel(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PartitionByLabel(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range p1.Clients {
		if p1.Clients[k].N() != p2.Clients[k].N() {
			t.Fatal("partition not deterministic")
		}
		for i := range p1.Clients[k].X {
			if p1.Clients[k].X[i] != p2.Clients[k].X[i] {
				t.Fatal("partition contents differ")
			}
		}
	}
}

func TestPartitionByLabelErrors(t *testing.T) {
	d := makeToyClassification(100, 2, 10, 1)
	if _, err := PartitionByLabel(d, PartitionConfig{NumDevices: 0, LabelsPerDevice: 2}); err == nil {
		t.Fatal("expected error for 0 devices")
	}
	if _, err := PartitionByLabel(d, PartitionConfig{NumDevices: 5, LabelsPerDevice: 0}); err == nil {
		t.Fatal("expected error for 0 labels per device")
	}
	if _, err := PartitionByLabel(d, PartitionConfig{NumDevices: 5, LabelsPerDevice: 11}); err == nil {
		t.Fatal("expected error for too many labels per device")
	}
	reg := New(2, 0, 1)
	if _, err := PartitionByLabel(reg, PartitionConfig{NumDevices: 2, LabelsPerDevice: 1}); err == nil {
		t.Fatal("expected error for regression dataset")
	}
	// Missing label.
	sparse := New(2, 3, 4)
	sparse.AppendClass([]float64{1, 2}, 0)
	sparse.AppendClass([]float64{1, 2}, 1)
	if _, err := PartitionByLabel(sparse, PartitionConfig{NumDevices: 2, LabelsPerDevice: 1, MinSamples: 1, MaxSamples: 2}); err == nil {
		t.Fatal("expected error for missing label")
	}
}
