package engine

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
)

// Evaluator measures server-side metrics — the global training loss over
// every training shard, test accuracy and, for an in-process run, the
// stationarity gap ‖∇F̄(w)‖² — on every core, with numbers that do not
// depend on how many cores there are.
//
// One measurement is a list of independent tasks: one Model.Loss per
// training shard — or, with Devices, one Model.LossGrad (see Measure) —
// then one batched prediction per models.PredictBlock rows of the test
// set. The calling goroutine and up to GOMAXPROCS-1 helpers from a
// process-wide pool claim tasks off a shared counter (shard sizes are
// power-law, so a static split would leave cores idle), each on a model of
// its own: the caller on Model, helper k on a Model.Clone() built the
// first time a k-th helper is wanted. Determinism rests on two facts. A
// shard's loss lands in that shard's slot, and its gradient in a buffer
// of that shard's, and the caller folds Σ Weights[i]·loss[i] and
// Σ Weights[i]·∇F_i in ascending shard order once every slot is filled,
// so each sum is the serial sum bit for bit whoever computed each term.
// Accuracy is a count of integers over fixed row blocks, and integer
// addition is order-free. With one core, one task or a measurement under
// evalFanOutMin, everything runs inline on the caller.
//
// The cost is memory: (GOMAXPROCS-1 at most) × (one model's scratch),
// plus one float64 per shard, PredictBlock ints per worker and, with
// Devices, one dim-sized accumulator. Steady-state measurements allocate
// nothing.
//
// An Evaluator serves one goroutine at a time and must not be copied after
// first use.
type Evaluator struct {
	Model   models.Model
	Clients []*data.Dataset // training shards for the global objective
	Weights []float64
	Test    *data.Dataset
	// Devices, when set, holds the in-process device that trains each of
	// Clients, in the same order: Measure hands each its next round's v⁰
	// and measures ‖∇F̄‖² from the same vectors. Evaluators of the TCP,
	// tree and async runtimes have none.
	Devices []*Device

	// The measurement in flight, published to helpers by the job send.
	workers []evalWorker // [0] is the caller on Model, the rest helpers on clones
	w       []float64
	nLoss   int          // tasks [0, nLoss) are shard losses,
	nTasks  int          // tasks [nLoss, nTasks) are test blocks
	next    atomic.Int64 // first unclaimed task
	hits    atomic.Int64 // correctly classified test rows
	lossAt  []float64    // lossAt[i] = Model.Loss(w, Clients[i])
	wg      sync.WaitGroup
	// With grad, shard tasks run LossGrad and hand over for round
	// handRound; gradAt[i] is where shard i's gradient went: its device's
	// buffer, or busyGrad[i] when the device was busy.
	grad      bool
	handRound int
	gradAt    [][]float64
	busyGrad  [][]float64
	sum       []float64 // Σ Weights[i]·gradAt[i]
}

// evalFanOutMin is the measurement size, in rows × parameters, below which
// the caller works alone: waking a helper and waiting for it costs tens of
// microseconds, which a measurement this small (about 100 µs of work on the
// 610-parameter softmax) does not win back.
const evalFanOutMin = 1 << 18

// evalWorker is the private state of one goroutine taking part in a
// measurement.
type evalWorker struct {
	model models.Model
	clf   models.Classifier // model as a classifier; nil when it is not one
	pred  []int             // predicted labels of one test block
}

// evalJob asks a pool helper to join ev's measurement as worker slot.
type evalJob struct {
	ev   *Evaluator
	slot int
}

// evalPool is the process-wide set of helper goroutines behind every
// Evaluator. Evaluators come and go (one per engine, one engine per job in
// internal/jobs), so helpers belong to the process, not to an evaluator:
// building and dropping evaluators starts and leaks nothing. The pool only
// grows, to the largest GOMAXPROCS-1 a measurement has asked for. It is
// separate from the tensor kernel pool because a helper's Model.Loss
// dispatches kernel blocks there, and that pool forbids nested dispatch.
//
// jobs is unbuffered and sends never block: a measurement hands a job only
// to a helper already parked in receive and does the rest itself, so no
// job outlives the measurement that issued it.
var evalPool struct {
	mu      sync.Mutex
	jobs    chan evalJob
	helpers int
}

// evalHelpers makes sure the pool has at least n helpers and returns its
// job channel.
func evalHelpers(n int) chan<- evalJob {
	p := &evalPool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jobs == nil {
		p.jobs = make(chan evalJob)
	}
	for ; p.helpers < n; p.helpers++ {
		go func(jobs <-chan evalJob) {
			for j := range jobs {
				j.ev.work(&j.ev.workers[j.slot])
				j.ev.wg.Done()
			}
		}(p.jobs)
	}
	return p.jobs
}

// Measure evaluates loss and accuracy in one fan-out (no barrier between
// the two). The returned point carries only what the evaluator measures;
// the caller stamps round number, gradient-eval count and participation.
//
// With Devices, each shard's loss comes from one Model.LossGrad pass
// (Loss's bits) that leaves ∇F_n(w) with its device as round nextRound's
// v⁰ — unless the device is busy with a cut round's solve — and the gap
// ‖Σ_n Weights[n]·∇F_n(w)‖² of eq. (12) is folded from those vectors.
// Without Devices, or without shards, the gap is NaN: unmeasured.
func (ev *Evaluator) Measure(w []float64, nextRound int) metrics.Point {
	ev.handRound = nextRound
	var p metrics.Point
	p.TrainLoss, p.TestAcc = ev.run(w, true, ev.Devices != nil)
	p.GradNormSq = math.NaN()
	if ev.grad && ev.nLoss > 0 {
		if cap(ev.sum) < len(w) {
			ev.sum = make([]float64, len(w))
		}
		sum := ev.sum[:len(w)]
		mathx.Zero(sum)
		for i, g := range ev.gradAt[:ev.nLoss] {
			mathx.Axpy(ev.Weights[i], g, sum)
		}
		p.GradNormSq = mathx.Nrm2Sq(sum)
	}
	return p
}

// Loss returns F̄(w) = Σ_n (D_n/D) F_n(w) — the objective of problem (2) —
// or NaN when the evaluator holds no training shards (a tree-root
// coordinator never sees per-device data; it can still measure TestAcc).
func (ev *Evaluator) Loss(w []float64) float64 {
	loss, _ := ev.run(w, false, false)
	return loss
}

// run is the one measurement path: it lays out the task list, engages the
// helpers that are free, works through the list alongside them and reduces
// the results. Either result is NaN when not asked for or not measurable.
// With grad, each shard task runs LossGrad (see lossGrad).
func (ev *Evaluator) run(w []float64, acc, grad bool) (float64, float64) {
	ev.nLoss, ev.grad = len(ev.Clients), grad
	testN := 0
	if _, ok := ev.Model.(models.Classifier); ok && acc && ev.Test != nil {
		testN = ev.Test.N()
	}
	ev.nTasks = ev.nLoss + (testN+models.PredictBlock-1)/models.PredictBlock
	if ev.nTasks == 0 {
		return math.NaN(), math.NaN()
	}
	if cap(ev.lossAt) < ev.nLoss {
		ev.lossAt = make([]float64, ev.nLoss)
	}
	if ev.grad && len(ev.gradAt) < ev.nLoss {
		ev.gradAt = make([][]float64, ev.nLoss)
		ev.busyGrad = make([][]float64, ev.nLoss)
	}
	ev.w = w
	ev.next.Store(0)
	ev.hits.Store(0)

	rows := testN
	for _, shard := range ev.Clients[:ev.nLoss] {
		rows += shard.N()
	}
	helpers := 0
	if rows*ev.Model.Dim() >= evalFanOutMin {
		helpers = min(runtime.GOMAXPROCS(0), ev.nTasks) - 1
	}
	ev.grow(1 + helpers)
	if helpers > 0 {
		jobs := evalHelpers(helpers)
		for k := 1; k <= helpers; k++ {
			ev.wg.Add(1)
			select {
			case jobs <- evalJob{ev, k}:
			default: // that helper is busy in another evaluator's measurement
				ev.wg.Done()
			}
		}
	}
	ev.work(&ev.workers[0])
	ev.wg.Wait()

	lossV, accV := math.NaN(), math.NaN()
	if ev.nLoss > 0 {
		lossV = 0
		for i, l := range ev.lossAt[:ev.nLoss] {
			lossV += ev.Weights[i] * l
		}
	}
	if testN > 0 {
		accV = float64(ev.hits.Load()) / float64(testN)
	}
	return lossV, accV
}

// grow builds worker slots up to n. It runs before any job of the
// measurement is sent, so helpers never see the slice move.
func (ev *Evaluator) grow(n int) {
	for len(ev.workers) < n {
		m := ev.Model
		if len(ev.workers) > 0 {
			m = m.Clone()
		}
		wk := evalWorker{model: m}
		if c, ok := m.(models.Classifier); ok {
			wk.clf, wk.pred = c, make([]int, models.PredictBlock)
		}
		ev.workers = append(ev.workers, wk)
	}
}

// work claims tasks until none are left. Tasks are claimed in ascending
// order, so the small uniform test blocks come last and even out whatever
// imbalance the power-law shards left.
func (ev *Evaluator) work(wk *evalWorker) {
	hits := 0
	for {
		t := int(ev.next.Add(1)) - 1
		if t >= ev.nTasks {
			break
		}
		if t < ev.nLoss {
			if ev.grad {
				ev.lossAt[t] = ev.lossGrad(wk.model, t)
			} else {
				ev.lossAt[t] = wk.model.Loss(ev.w, ev.Clients[t], nil)
			}
			continue
		}
		lo := (t - ev.nLoss) * models.PredictBlock
		hi := min(lo+models.PredictBlock, ev.Test.N())
		hits += models.CountCorrect(wk.clf, wk.pred, ev.w, ev.Test, lo, hi)
	}
	ev.hits.Add(int64(hits))
}

// lossGrad is shard t's task in a measurement with Devices: one LossGrad
// into device t's hand-over buffer, keyed handRound, or, when a cut
// round's solve may still be reading that, into the evaluator's own buffer
// for the shard. Only the engine goroutine sets busy, never during a
// measurement, so a device seen idle at claim stays idle until the
// measurement ends. Either buffer is allocated at its first use.
func (ev *Evaluator) lossGrad(m models.Model, t int) float64 {
	d := ev.Devices[t]
	idle := !d.busy.Load()
	buf := &ev.busyGrad[t]
	if idle {
		buf = &d.v0
	}
	if *buf == nil {
		*buf = make([]float64, len(ev.w))
	}
	ev.gradAt[t] = *buf
	loss := m.LossGrad(*buf, ev.w, ev.Clients[t])
	if idle {
		d.v0Round.Store(int64(ev.handRound))
	}
	return loss
}
