// Package testx holds the resource checks the test suites share: live-heap
// readings for "memory does not scale with X" tests and the goroutine-leak
// check for anything that owns a pool.
package testx

import (
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
