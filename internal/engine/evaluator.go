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
// the cohort's shards and test accuracy — on every core, with numbers that
// do not depend on how many cores there are.
//
// One measurement is a list of independent tasks: one Model.Loss per
// training shard — or, for a shard whose device is handed its next round's
// v⁰, one Model.LossGrad (see Measure) — then one batched prediction per
// models.PredictBlock rows of the test set. The calling goroutine and up
// to GOMAXPROCS-1 helpers from a process-wide pool claim tasks off a
// shared counter (shard sizes are power-law, so a static split would leave
// cores idle), each on a model of its own: the caller on Model, helper k on a Model.Clone() built
// the first time a k-th helper is wanted. Determinism rests on two facts.
// A shard's loss lands in that shard's slot and the caller folds
// Σ Weights[i]·loss[i] in ascending shard order once every slot is filled,
// so the sum is the serial sum bit for bit whoever computed each term.
// Accuracy is a count of integers over fixed row blocks, and integer
// addition is order-free. With one core, one task or a measurement under
// evalFanOutMin, everything runs inline on the caller.
//
// The cost is memory: (GOMAXPROCS-1 at most) × (one model's scratch),
// plus one float64 per shard and PredictBlock ints per worker. Steady-state
// measurements allocate nothing.
//
// An Evaluator serves one goroutine at a time and must not be copied after
// first use.
type Evaluator struct {
	Model   models.Model
	Clients []*data.Dataset // training shards for the global objective
	Weights []float64
	Test    *data.Dataset
	// Devices, when set, holds the in-process device that trains each of
	// Clients, in the same order: Measure can hand them their next round's
	// v⁰. Evaluators of the TCP, tree and async runtimes have none.
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
	// handTo[i] is set when shard i's device is handed its v⁰ for round
	// handRound; empty outside a Measure that hands over, so Loss never
	// does.
	handTo    []bool
	handRound int

	grads, g []float64
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
// the two) and, when trackStationarity is set, ‖∇F̄(w)‖². The returned
// point carries only what the evaluator measures; the caller stamps round
// number, gradient-eval count and participation.
//
// next, when the evaluator has Devices, is round nextRound's cohort, whose
// solves will start from w: for each of those devices not busy with a cut
// round's solve, the shard's loss comes from one Model.LossGrad pass that
// leaves ∇F_n(w) with the device as that round's v⁰ (Device.handOver).
// LossGrad returns Loss's bits, so the point is the same either way.
// A nil next hands nothing over.
func (ev *Evaluator) Measure(w []float64, trackStationarity bool, nextRound int, next []int) metrics.Point {
	if len(next) > 0 && ev.Devices != nil {
		if cap(ev.handTo) < len(ev.Clients) {
			ev.handTo = make([]bool, len(ev.Clients))
		}
		ev.handTo = ev.handTo[:len(ev.Clients)]
		clear(ev.handTo)
		for _, id := range next {
			ev.handTo[id] = !ev.Devices[id].busy.Load()
		}
		ev.handRound = nextRound
	}
	var p metrics.Point
	p.TrainLoss, p.TestAcc = ev.run(w, true, true)
	ev.handTo = ev.handTo[:0]
	if trackStationarity {
		p.GradNormSq = ev.GradNormSq(w)
	}
	return p
}

// Loss returns F̄(w) = Σ_n (D_n/D) F_n(w) — the objective of problem (2) —
// or NaN when the evaluator holds no training shards (a tree-root
// coordinator never sees per-device data; it can still measure TestAcc).
func (ev *Evaluator) Loss(w []float64) float64 {
	loss, _ := ev.run(w, true, false)
	return loss
}

// run is the one measurement path: it lays out the task list, engages the
// helpers that are free, works through the list alongside them and reduces
// the results. Either result is NaN when not asked for or not measurable.
func (ev *Evaluator) run(w []float64, loss, acc bool) (float64, float64) {
	ev.nLoss = 0
	if loss {
		ev.nLoss = len(ev.Clients)
	}
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
			if len(ev.handTo) > 0 && ev.handTo[t] {
				ev.lossAt[t] = ev.Devices[t].handOver(wk.model, ev.w, ev.handRound)
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

// GradNormSq returns ‖∇F̄(w)‖² — the stationarity gap used in (12) — using
// reusable scratch buffers. It stays serial on the caller: the weighted
// gradients must be added in ascending shard order to keep the sum's bits,
// and a parallel version would need a dim-sized buffer per worker and an
// ordered hand-over for a measurement that is off by default
// (Config.TrackStationarity).
func (ev *Evaluator) GradNormSq(w []float64) float64 {
	if cap(ev.grads) < len(w) {
		ev.grads = make([]float64, len(w))
		ev.g = make([]float64, len(w))
	}
	grads, g := ev.grads[:len(w)], ev.g[:len(w)]
	mathx.Zero(grads)
	for i, shard := range ev.Clients {
		ev.Model.Grad(g, w, shard, nil)
		mathx.Axpy(ev.Weights[i], g, grads)
	}
	return mathx.Nrm2Sq(grads)
}
