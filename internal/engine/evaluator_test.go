package engine_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/testx"
)

// evalFixture is a random evaluation problem: shards of the given sizes, a
// test set and a parameter vector, all for a dim×classes softmax. Except
// where a case is about tiny inputs, sizes are chosen so that rows ×
// parameters clears the evaluator's fan-out threshold.
type evalFixture struct {
	m       *models.Softmax
	shards  []*data.Dataset
	weights []float64
	test    *data.Dataset
	w       []float64
}

func randomDataset(rng *rand.Rand, dim, classes, n int) *data.Dataset {
	ds := data.New(dim, classes, n)
	x := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		ds.AppendClass(x, i%classes)
	}
	return ds
}

func newEvalFixture(seed int64, sizes []int, testN int) *evalFixture {
	const dim, classes = 30, 6
	rng := randx.New(seed)
	f := &evalFixture{m: models.NewSoftmax(dim, classes, 0.01), weights: make([]float64, len(sizes))}
	total := 0
	for _, n := range sizes {
		f.shards = append(f.shards, randomDataset(rng, dim, classes, n))
		total += n
	}
	for i, n := range sizes {
		f.weights[i] = float64(n) / float64(max(total, 1))
	}
	f.test = randomDataset(rng, dim, classes, testN)
	f.w = make([]float64, f.m.Dim())
	randx.NormalVec(rng, f.w, 0, 1)
	return f
}

func (f *evalFixture) evaluator() *engine.Evaluator {
	return &engine.Evaluator{Model: f.m.Clone(), Clients: f.shards, Weights: f.weights, Test: f.test}
}

// serial is the naive reference: one model, one goroutine, shards in
// order, and one batched sweep of the whole test set.
func (f *evalFixture) serial() (loss, acc, gradNormSq float64) {
	m := f.m.Clone().(*models.Softmax)
	grads, g := make([]float64, len(f.w)), make([]float64, len(f.w))
	for i, shard := range f.shards {
		loss += f.weights[i] * m.Loss(f.w, shard, nil)
		m.Grad(g, f.w, shard, nil)
		mathx.Axpy(f.weights[i], g, grads)
	}
	if len(f.shards) == 0 {
		loss = math.NaN()
	}
	correct := models.CountCorrect(m, make([]int, f.test.N()), f.w, f.test, 0, f.test.N())
	acc = math.NaN()
	if f.test.N() > 0 {
		acc = float64(correct) / float64(f.test.N())
	}
	return loss, acc, mathx.Nrm2Sq(grads)
}

// sameBits reports whether a and b are the same float64, NaN included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEvaluatorMatchesSerialReference pins the fanned-out Loss and Measure
// to the serial reference bit for bit, over the partition shapes that
// stress the task list. Run it at -cpu 1,2,4 (make check does):
// the numbers may not depend on the worker count.
func TestEvaluatorMatchesSerialReference(t *testing.T) {
	tiny := make([]int, 10000)
	for i := range tiny {
		tiny[i] = 1 + i%3
	}
	cases := []struct {
		name  string
		sizes []int
		testN int
	}{
		{"power-law", []int{700, 37, 5, 260, 90, 33, 1200, 64, 31, 48}, 1000},
		{"empty shard", []int{600, 0, 900}, 300},
		{"below one chunk", []int{3, 1, 7, 31, 2}, 17},
		{"one shard", []int{2000}, 2 * models.PredictBlock},
		{"fewer shards than workers", []int{900, 600}, 0},
		{"10k tiny shards", tiny, models.PredictBlock + 1},
		{"test set only", nil, 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newEvalFixture(int64(len(tc.sizes))+7, tc.sizes, tc.testN)
			wantLoss, wantAcc, wantGrad := f.serial()
			ev := f.evaluator()
			for rep := 0; rep < 3; rep++ { // scratch reuse must not leak between calls
				if got := ev.Loss(f.w); !sameBits(got, wantLoss) {
					t.Fatalf("rep %d: Loss = %v, serial %v", rep, got, wantLoss)
				}
				p := ev.Measure(f.w, rep%2 == 0)
				if !sameBits(p.TrainLoss, wantLoss) || !sameBits(p.TestAcc, wantAcc) {
					t.Fatalf("rep %d: Measure = (%v, %v), serial (%v, %v)", rep, p.TrainLoss, p.TestAcc, wantLoss, wantAcc)
				}
				if rep%2 == 0 && len(tc.sizes) > 0 && !sameBits(p.GradNormSq, wantGrad) {
					t.Fatalf("rep %d: GradNormSq = %v, serial %v", rep, p.GradNormSq, wantGrad)
				}
				if rep%2 == 1 && p.GradNormSq != 0 {
					t.Fatalf("rep %d: GradNormSq = %v without trackStationarity", rep, p.GradNormSq)
				}
			}
		})
	}
}

// TestEvaluatorsShareThePool measures on several evaluators at once — the
// internal/jobs pattern, one engine per running job — which makes them
// compete for the same helpers.
func TestEvaluatorsShareThePool(t *testing.T) {
	f := newEvalFixture(3, []int{400, 20, 150, 33, 70, 900, 10}, 700)
	wantLoss, wantAcc, _ := f.serial()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := f.evaluator()
			for rep := 0; rep < 20; rep++ {
				if p := ev.Measure(f.w, false); !sameBits(p.TrainLoss, wantLoss) || !sameBits(p.TestAcc, wantAcc) {
					t.Errorf("Measure = (%v, %v), serial (%v, %v)", p.TrainLoss, p.TestAcc, wantLoss, wantAcc)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// notClassifier hides the wrapped model's PredictBatch: a Model that does
// not classify.
type notClassifier struct{ models.Model }

// TestEvaluatorAccuracyUnmeasured: no test samples means no measurement,
// whether the test set is nil or merely empty (which used to record a
// measured 0), and so does a model that does not classify.
func TestEvaluatorAccuracyUnmeasured(t *testing.T) {
	f := newEvalFixture(5, []int{30, 30}, 50)
	for name, ev := range map[string]*engine.Evaluator{
		"nil test set":     {Model: f.m, Clients: f.shards, Weights: f.weights},
		"empty test set":   {Model: f.m, Clients: f.shards, Weights: f.weights, Test: data.New(30, 6, 0)},
		"no model":         {Test: f.test},
		"not a classifier": {Model: notClassifier{f.m}, Test: f.test},
	} {
		if acc := ev.Measure(f.w, false).TestAcc; !math.IsNaN(acc) {
			t.Errorf("%s: TestAcc = %v, want NaN", name, acc)
		}
	}
	ev := &engine.Evaluator{Model: f.m, Clients: f.shards, Weights: f.weights, Test: data.New(30, 6, 0)}
	if p := ev.Measure(f.w, false); !math.IsNaN(p.TestAcc) || math.IsNaN(p.TrainLoss) {
		t.Errorf("Measure with an empty test set = (%v, %v), want (loss, NaN)", p.TrainLoss, p.TestAcc)
	}
}

// TestEvaluatorsLeaveNoGoroutines builds, uses and drops evaluators the
// way jobs.Manager does: the helpers belong to the process, so the
// goroutine count does not grow with the number of evaluators.
func TestEvaluatorsLeaveNoGoroutines(t *testing.T) {
	f := newEvalFixture(9, []int{50, 80, 20, 60}, 300)
	f.evaluator().Measure(f.w, false) // start the pool
	// Grace 0: nothing may outlive a measurement, so the count is read at once.
	testx.NoGoroutineGrowth(t, 100, 0, func() { f.evaluator().Measure(f.w, false) })
}

// TestEvaluatorMeasureAllocFree holds steady-state measurement to zero
// allocs/op with the fan-out live (testing.AllocsPerRun would pin
// GOMAXPROCS to 1 and measure only the inline case). The runtime itself
// allocates now and then when a parked goroutine's wait record misses its
// cache, so the bound is what a benchmark would round to zero; a goroutine
// or a closure per measurement costs at least one each.
func TestEvaluatorMeasureAllocFree(t *testing.T) {
	f := newEvalFixture(11, []int{200, 40, 90, 33, 500, 64}, 600)
	ev := f.evaluator()
	ev.Measure(f.w, true)
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ev.Measure(f.w, true)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; 2*n >= calls {
		t.Fatalf("%d measurements allocated %d times", calls, n)
	}
}
