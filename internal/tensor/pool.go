package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The pool is the process's one set of helper goroutines. Every fan-out in
// the process shares it — the row blocks of one kernel (Par), the device
// solves of one in-process round, the shard tasks of one measurement — and
// every fan-out follows one rule: the caller always works its own task
// list, and the fan-out is offered only to helpers that are parked at that
// moment (an unbuffered channel, a non-blocking send). A fan-out started
// inside another one's task finds the helpers already busy and runs on its
// caller, so the outermost level that can fill the cores does, with no
// flag passed down, and nesting cannot deadlock: nobody ever waits for a
// helper that is not already working on their tasks.
//
// A persistent pool — rather than goroutines per call — is what lets the
// steady-state batched forward/backward path run with zero allocations:
// offering a fan-out is a value send, and all per-call state lives in a
// caller-owned Fan. The pool grows to the largest GOMAXPROCS a fan-out has
// seen and never shrinks; a parked helper costs a goroutine stack and no
// CPU.
//
// Determinism does not depend on the pool: tasks are cut at fixed
// boundaries (independent of worker count), each output belongs to exactly
// one task, and tasks never combine partial reductions, so the mapping of
// tasks to goroutines cannot change any result bit.

const (
	// gemmRowGrain is the fixed number of output rows per dispatched GEMM
	// block. It must never depend on GOMAXPROCS.
	gemmRowGrain = 16
	// parCostThreshold is the approximate flop count below which dispatch
	// overhead exceeds the win and kernels run serially on the caller.
	parCostThreshold = 64 << 10
)

// job asks a parked helper to run fn, or, without one, to work f's tasks
// as worker slot.
type job struct {
	f    *Fan
	slot int
	fn   func()
}

var (
	// jobs is unbuffered: a fan-out's non-blocking send reaches only a
	// helper parked in receive, and Hand's blocking send waits for one.
	jobs    = make(chan job)
	growMu  sync.Mutex
	helpers atomic.Int32
)

// grow makes sure the pool holds at least n helpers. It is the one place
// that starts pool goroutines.
func grow(n int) {
	if int(helpers.Load()) >= n {
		return
	}
	growMu.Lock()
	defer growMu.Unlock()
	for int(helpers.Load()) < n {
		go func() {
			for j := range jobs {
				if j.fn != nil {
					j.fn()
					continue
				}
				j.f.work(j.slot)
				j.f.wg.Done()
			}
		}()
		helpers.Add(1)
	}
}

// Fan is one fan-out of n independent tasks over the pool. One Fan belongs
// to one caller at a time (embedded in a Par, an executor or an
// evaluator); it carries the fan-out's state so that offering it allocates
// nothing. A Fan must not be copied after first use.
type Fan struct {
	do   func(slot, task int)
	n    int64
	next atomic.Int64 // first unclaimed task
	wg   sync.WaitGroup
}

// Run calls do(slot, t) once for every task t in [0, n) and returns when
// every call has returned. The caller works the tasks as slot 0, alongside
// the helpers that are parked when Run starts, as slots 1, 2, …: at most
// min(workers, GOMAXPROCS) goroutines in all. Tasks are claimed in
// ascending order off a shared counter, so uneven tasks even out. With one
// worker, or no helper parked, the caller runs them all in order. do may
// fan out again (nested fan-outs are safe) and must be bound once by the
// caller, not per call, for Run to allocate nothing.
func (f *Fan) Run(n, workers int, do func(slot, task int)) {
	if f.offer(n, workers, do) > 0 {
		f.finish()
		return
	}
	for t := 0; t < n; t++ {
		do(0, t)
	}
}

// offer publishes the fan-out and hands it to parked helpers, returning
// how many took it. With none, nothing is in flight and the caller may do
// the work any way it likes; otherwise it must call finish.
func (f *Fan) offer(n, workers int, do func(slot, task int)) int {
	procs := runtime.GOMAXPROCS(0)
	workers = min(workers, n, procs)
	if workers < 2 {
		return 0
	}
	grow(procs)
	f.do, f.n = do, int64(n)
	f.next.Store(0)
	joined := 0
	for k := 1; k < workers; k++ {
		f.wg.Add(1)
		select {
		case jobs <- job{f: f, slot: k}:
			joined++
		default: // no helper is parked: the caller does this share itself
			f.wg.Done()
		}
	}
	return joined
}

// finish works the offered tasks on the caller and waits for the helpers
// that joined.
func (f *Fan) finish() {
	f.work(0)
	f.wg.Wait()
}

// work claims tasks until none are left.
func (f *Fan) work(slot int) {
	for {
		t := f.next.Add(1) - 1
		if t >= f.n {
			return
		}
		f.do(slot, int(t))
	}
}

// Hand blocks until a helper takes fn, which the helper then runs, or until
// stop is closed, and reports whether a helper took it. Unlike a fan-out,
// the caller does none of the work, so it can watch a deadline while fn
// runs. Hand must not be called from inside a fan-out task or a handed
// function: with every helper blocked in Hand, nobody would take it.
func Hand(stop <-chan struct{}, fn func()) bool {
	grow(runtime.GOMAXPROCS(0))
	select {
	case jobs <- job{fn: fn}:
		return true
	case <-stop:
		return false
	}
}

// Par fans kernel row blocks out over the pool. One Par belongs to one
// caller goroutine at a time (typically embedded in a layer cache or model
// scratch); its fields carry per-call operands so that no closure is
// allocated after construction. A Par body may itself fan out.
type Par struct {
	fan      Fan
	body     func(lo, hi int)
	n, grain int
	block    func(slot, t int)

	acc     bool
	a, b, c Mat

	nn, nt, tn func(lo, hi int)
}

// NewPar builds a dispatcher with its kernel bodies pre-bound (the only
// allocations Par ever makes).
func NewPar() *Par {
	p := &Par{}
	p.block = func(_, t int) {
		lo := t * p.grain
		p.body(lo, min(lo+p.grain, p.n))
	}
	p.nn = func(lo, hi int) { GemmNNRows(p.a, p.b, p.acc, p.c, lo, hi) }
	p.nt = func(lo, hi int) { GemmNTRows(p.a, p.b, p.acc, p.c, lo, hi) }
	p.tn = func(lo, hi int) { GemmTNRows(p.a, p.b, p.acc, p.c, lo, hi) }
	return p
}

// GemmNN computes C = A*B, or C += A*B with acc, row-blocked across the
// pool.
func (p *Par) GemmNN(a, b Mat, acc bool, c Mat) {
	checkNN(a, b, c)
	p.a, p.b, p.acc, p.c = a, b, acc, c
	p.Run(c.Rows, gemmRowGrain, 2*a.Rows*a.Cols*b.Cols, p.nn)
}

// GemmNT computes C = A*Bᵀ, or C += A*Bᵀ with acc, row-blocked across the
// pool.
func (p *Par) GemmNT(a, b Mat, acc bool, c Mat) {
	checkNT(a, b, c)
	p.a, p.b, p.acc, p.c = a, b, acc, c
	p.Run(c.Rows, gemmRowGrain, 2*a.Rows*a.Cols*b.Rows, p.nt)
}

// GemmTN computes C = Aᵀ*B, or C += Aᵀ*B with acc, row-blocked across the
// pool.
func (p *Par) GemmTN(a, b Mat, acc bool, c Mat) {
	checkTN(a, b, c)
	p.a, p.b, p.acc, p.c = a, b, acc, c
	p.Run(c.Rows, gemmRowGrain, 2*a.Rows*a.Cols*b.Cols, p.tn)
}

// Run executes body over [0, n) in fixed blocks of grain, fanning blocks
// out over the pool when cost (approximate flops) justifies it and a
// helper is parked; otherwise it calls body(0, n) once on the caller. body
// must produce identical results for any partition of [0, n) into
// contiguous blocks — i.e. outputs of distinct rows are independent and
// each row's reduction order is internally fixed. body must be
// pre-allocated by the caller (stored once, not per call) for the
// zero-alloc guarantee to hold.
func (p *Par) Run(n, grain, cost int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if cost >= parCostThreshold && n > grain {
		p.body, p.n, p.grain = body, n, grain
		blocks := (n + grain - 1) / grain
		if p.fan.offer(blocks, blocks, p.block) > 0 {
			p.fan.finish()
			return
		}
	}
	body(0, n)
}
