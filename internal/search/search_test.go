package search

import (
	"testing"
	"time"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/testx"
)

func searchFixture(t *testing.T) (*data.Partition, *data.Dataset, *models.Softmax) {
	t.Helper()
	rng := randx.New(1)
	full := data.New(3, 3, 300)
	centers := [][]float64{{3, 0, 0}, {0, 3, 0}, {0, 0, 3}}
	x := make([]float64, 3)
	for i := 0; i < 300; i++ {
		c := i % 3
		for j := range x {
			x[j] = centers[c][j] + 0.5*rng.NormFloat64()
		}
		full.AppendClass(x, c)
	}
	train, test := full.Split(0.75, 2)
	part, err := data.PartitionByLabel(train, data.PartitionConfig{
		NumDevices: 4, MinSamples: 20, MaxSamples: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return part, test, models.NewSoftmax(3, 3)
}

func TestSpaceValidate(t *testing.T) {
	good := Space{Taus: []int{5}, Betas: []float64{5}, Mus: []float64{0}, Batches: []int{8}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Space{Betas: []float64{5}, Mus: []float64{0}, Batches: []int{8}}).Validate(); err == nil {
		t.Fatal("empty Taus should be invalid")
	}
}

func TestRandomSearchFindsWorkingConfig(t *testing.T) {
	part, test, m := searchFixture(t)
	space := Space{
		Taus:    []int{5, 10},
		Betas:   []float64{5, 10},
		Mus:     []float64{0.1, 0.5},
		Batches: []int{8},
	}
	opts := Options{
		Estimator: optim.SARAH, Name: "FedProxVR (SARAH)",
		L: 1, Rounds: 15, Trials: 4, Seed: 5,
	}
	trials, err := Run(m, part, test, space, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 4 {
		t.Fatalf("got %d trials", len(trials))
	}
	// Sorted descending.
	for i := 1; i < len(trials); i++ {
		if trials[i].BestAcc > trials[i-1].BestAcc {
			t.Fatal("trials not sorted by accuracy")
		}
	}
	best := trials[0]
	if best.BestAcc < 0.8 {
		t.Fatalf("best accuracy %v too low on separable blobs", best.BestAcc)
	}
	if best.BestRound < 0 {
		t.Fatal("best round not recorded")
	}
}

func TestSearchStopsWhenSpaceExhausted(t *testing.T) {
	part, test, m := searchFixture(t)
	space := Space{Taus: []int{3}, Betas: []float64{5}, Mus: []float64{0.1}, Batches: []int{8}}
	opts := Options{Estimator: optim.SVRG, Name: "x", L: 1, Rounds: 3, Trials: 10, Seed: 6}
	trials, err := Run(m, part, test, space, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 1 {
		t.Fatalf("space has 1 point but got %d trials", len(trials))
	}
}

func TestSearchValidation(t *testing.T) {
	part, test, m := searchFixture(t)
	bad := Space{}
	if _, err := Run(m, part, test, bad, Options{Trials: 1, Rounds: 1, L: 1}, nil); err == nil {
		t.Fatal("invalid space should error")
	}
	good := Space{Taus: []int{1}, Betas: []float64{5}, Mus: []float64{0}, Batches: []int{1}}
	if _, err := Run(m, part, test, good, Options{Trials: 0, Rounds: 1, L: 1}, nil); err == nil {
		t.Fatal("Trials=0 should error")
	}
	// Missing test set → no accuracy → error.
	if _, err := Run(m, part, nil, good, Options{Trials: 1, Rounds: 1, L: 1, Estimator: optim.SGD}, nil); err == nil {
		t.Fatal("missing test set should error")
	}
}

func TestTableFormatting(t *testing.T) {
	tr := Trial{Algorithm: "FedAvg", Tau: 10, Beta: 10, Mu: 0, Batch: 16, BestAcc: 0.8402, BestRound: 983}
	row := TableRow(tr)
	if len(row) != len(TableHeaders()) {
		t.Fatal("row/header length mismatch")
	}
	if row[6] != "84.02%" {
		t.Fatalf("accuracy cell = %q", row[6])
	}
	if row[5] != "983" {
		t.Fatalf("T cell = %q", row[5])
	}
}

// TestSearchRejectsMisSizedInitW: a shared initialization shorter or longer
// than the model is an error, not a silent truncation or zero-padding.
func TestSearchRejectsMisSizedInitW(t *testing.T) {
	part, test, m := searchFixture(t)
	space := Space{Taus: []int{1}, Betas: []float64{5}, Mus: []float64{0}, Batches: []int{4}}
	opts := Options{Estimator: optim.SGD, Name: "x", L: 1, Rounds: 1, Trials: 1, Seed: 7}
	for _, n := range []int{m.Dim() - 1, m.Dim() + 1} {
		if _, err := Run(m, part, test, space, opts, make([]float64, n)); err == nil {
			t.Fatalf("initW of %d entries accepted for a %d-parameter model", n, m.Dim())
		}
	}
	if _, err := Run(m, part, test, space, opts, make([]float64, m.Dim())); err != nil {
		t.Fatal(err)
	}
}

// TestSearchStopsItsWorkerPools: parallel trials leave no goroutine
// behind: they fan out over the process-wide helper pool.
func TestSearchStopsItsWorkerPools(t *testing.T) {
	part, test, m := searchFixture(t)
	space := Space{Taus: []int{2}, Betas: []float64{5, 10}, Mus: []float64{0.1}, Batches: []int{8}}
	opts := Options{Estimator: optim.SARAH, Name: "x", L: 1, Rounds: 2, Trials: 2, Seed: 8}
	run := func() {
		if _, err := Run(m, part, test, space, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // grows the process-wide helper pool
	testx.NoGoroutineGrowth(t, 5, 2*time.Second, run)
}
