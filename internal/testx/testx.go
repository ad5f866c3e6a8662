// Package testx holds the resource checks the test suites share: live-heap
// readings for "memory does not scale with X" tests and the goroutine-leak
// check for anything that owns a pool. It also keeps the row-at-a-time
// softmax and log-sum-exp, the reference the models' chunked softmax
// cross-entropy head is held to bit for bit, and the ReLU layer of the
// tests' MLP (relu.go).
package testx

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// LiveHeap returns the bytes of reachable heap objects. It collects twice
// so that objects freed by finalizers run in the first cycle are gone too.
func LiveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// NoGoroutineGrowth calls f n times and fails t if the process is left with
// more goroutines than before the first call. Start anything process-wide
// that f uses (a shared pool) before calling it. With grace 0 the count is
// read once, as soon as the last call returns: the contract that nothing
// outlives f. A positive grace is for goroutines that are told to stop — by
// a closed job channel, say — and exit on their own schedule; the count is
// polled until it settles or grace runs out.
func NoGoroutineGrowth(t testing.TB, n int, grace time.Duration, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		f()
	}
	deadline := time.Now().Add(grace)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("goroutines grew from %d to %d over %d calls", before, after, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// LogSumExp returns log Σ exp(x_i), computed stably: with m the first
// largest element, m + log of the ascending sum of exp(x_i − m), or −Inf
// when m is −Inf.
func LogSumExp(x []float64) float64 {
	m := rowMax(x)
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// SoftmaxInPlace overwrites x with softmax(x), computed stably, and
// returns LogSumExp of the x it was given, bit for bit: the same max and
// the same ascending sum of exponentials.
func SoftmaxInPlace(x []float64) float64 {
	m := rowMax(x)
	var s float64
	for i, v := range x {
		e := math.Exp(v - m)
		x[i] = e
		s += e
	}
	inv := 1 / s
	for i := range x {
		x[i] *= inv
	}
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	return m + math.Log(s)
}

// rowMax returns the first largest element of x, as mathx.Max does (a NaN
// is never larger, unless it comes first). Panics on empty input.
func rowMax(x []float64) float64 {
	best := x[0]
	for _, v := range x[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
