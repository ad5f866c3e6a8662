package tensor

import (
	"runtime"
	"sync"
)

// The kernel pool is a process-wide set of long-lived worker goroutines
// that execute fixed-size blocks of kernel work. A persistent pool — rather
// than spawning goroutines per call — is what lets the steady-state batched
// forward/backward path run with zero allocations: dispatching a block is a
// value send on a buffered channel, and all per-call state lives in a
// caller-owned Par.
//
// Determinism does not depend on the pool: blocks are cut at fixed
// boundaries (independent of worker count), each output row belongs to
// exactly one block, and blocks never combine partial reductions, so the
// mapping of blocks to workers cannot change any result bit.

const (
	// gemmRowGrain is the fixed number of output rows per dispatched GEMM
	// block. It must never depend on GOMAXPROCS.
	gemmRowGrain = 16
	// parCostThreshold is the approximate flop count below which dispatch
	// overhead exceeds the win and kernels run serially on the caller.
	parCostThreshold = 64 << 10
)

type poolJob struct {
	p      *Par
	lo, hi int
}

var (
	poolOnce    sync.Once
	poolJobs    chan poolJob
	poolWorkers int
)

func startPool() {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0)
		if poolWorkers < 2 {
			// A single-CPU process gains nothing from fan-out; leave the
			// pool empty so every block runs inline on the caller.
			poolWorkers = 0
			return
		}
		poolJobs = make(chan poolJob, 256)
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for j := range poolJobs {
					j.p.body(j.lo, j.hi)
					j.p.wg.Done()
				}
			}()
		}
	})
}

// Par dispatches kernel blocks to the pool. One Par belongs to one caller
// goroutine at a time (typically embedded in a layer cache or model
// scratch); its fields carry per-call operands so that no closure is
// allocated after construction. Par methods must not be called from inside
// a Par body (no nested dispatch).
type Par struct {
	wg   sync.WaitGroup
	body func(lo, hi int)

	alpha, beta float64
	a, b, c     Mat

	nn, nt, tn func(lo, hi int)
}

// NewPar builds a dispatcher with its kernel bodies pre-bound (the only
// allocations Par ever makes).
func NewPar() *Par {
	p := &Par{}
	p.nn = func(lo, hi int) { GemmNNRows(p.alpha, p.a, p.b, p.beta, p.c, lo, hi) }
	p.nt = func(lo, hi int) { GemmNTRows(p.alpha, p.a, p.b, p.beta, p.c, lo, hi) }
	p.tn = func(lo, hi int) { GemmTNRows(p.alpha, p.a, p.b, p.beta, p.c, lo, hi) }
	return p
}

// GemmNN computes C = alpha*A*B + beta*C, row-blocked across the pool.
func (p *Par) GemmNN(alpha float64, a, b Mat, beta float64, c Mat) {
	checkNN(a, b, c)
	p.alpha, p.a, p.b, p.beta, p.c = alpha, a, b, beta, c
	p.Run(c.Rows, gemmRowGrain, 2*a.Rows*a.Cols*b.Cols, p.nn)
}

// GemmNT computes C = alpha*A*Bᵀ + beta*C, row-blocked across the pool.
func (p *Par) GemmNT(alpha float64, a, b Mat, beta float64, c Mat) {
	checkNT(a, b, c)
	p.alpha, p.a, p.b, p.beta, p.c = alpha, a, b, beta, c
	p.Run(c.Rows, gemmRowGrain, 2*a.Rows*a.Cols*b.Rows, p.nt)
}

// GemmTN computes C = alpha*Aᵀ*B + beta*C, row-blocked across the pool.
func (p *Par) GemmTN(alpha float64, a, b Mat, beta float64, c Mat) {
	checkTN(a, b, c)
	p.alpha, p.a, p.b, p.beta, p.c = alpha, a, b, beta, c
	p.Run(c.Rows, gemmRowGrain, 2*a.Rows*a.Cols*b.Cols, p.tn)
}

// Run executes body over [0, n) in fixed blocks of grain, fanning blocks
// out to the pool when cost (approximate flops) justifies it. body must
// produce identical results for any partition of [0, n) into contiguous
// blocks — i.e. outputs of distinct rows are independent and each row's
// reduction order is internally fixed. body must be pre-allocated by the
// caller (stored once, not per call) for the zero-alloc guarantee to hold.
func (p *Par) Run(n, grain, cost int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	startPool()
	if poolWorkers == 0 || cost < parCostThreshold || n <= grain {
		body(0, n)
		return
	}
	p.body = body
	blocks := (n + grain - 1) / grain
	// Dispatch all blocks but the last; the caller computes its own share
	// instead of idling, and absorbs blocks the queue cannot take.
	for i := 0; i < blocks-1; i++ {
		lo := i * grain
		hi := lo + grain
		p.wg.Add(1)
		select {
		case poolJobs <- poolJob{p, lo, hi}:
		default:
			body(lo, hi)
			p.wg.Done()
		}
	}
	body((blocks-1)*grain, n)
	p.wg.Wait()
}

// MaxWorkers reports the maximum fan-out parallel helpers will use
// (GOMAXPROCS at call time).
func MaxWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}
