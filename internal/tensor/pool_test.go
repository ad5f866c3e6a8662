package tensor

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// within fails t unless f returns within d: a fan-out that deadlocks fails
// the test instead of hanging it.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not finish within %v", d)
	}
}

// TestParFanOutFollowsGOMAXPROCS: the pool's size follows the GOMAXPROCS
// of the moment, not of the first fan-out. After a pass at GOMAXPROCS 1
// (which runs everything inline), a Par.Run above parCostThreshold at
// GOMAXPROCS 2 is worked by more than one goroutine and gives the serial
// GEMM's bits.
func TestParFanOutFollowsGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randMat(rng, 256, 256), randMat(rng, 256, 256)
	serial := MatOf(256, 256, make([]float64, 256*256))
	GemmNN(a, b, false, serial)

	got := MatOf(256, 256, make([]float64, 256*256))
	p := NewPar()
	var mu sync.Mutex
	workers := map[uint64]bool{}
	body := func(lo, hi int) {
		mu.Lock()
		workers[goid()] = true
		mu.Unlock()
		GemmNNRows(a, b, false, got, lo, hi)
	}
	run := func() {
		clear(workers)
		clear(got.Data)
		p.Run(got.Rows, gemmRowGrain, 2*256*256*256, body)
		for i := range got.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("GOMAXPROCS=%d: element %d = %v, serial %v", runtime.GOMAXPROCS(0), i, got.Data[i], serial.Data[i])
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	if len(workers) != 1 {
		t.Fatalf("GOMAXPROCS=1: worked by %d goroutines, want 1", len(workers))
	}
	runtime.GOMAXPROCS(2)
	// A helper joins only if it is parked when Run starts; the first call
	// may grow the pool before the new helpers reach their receive.
	deadline := time.Now().Add(10 * time.Second)
	for run(); len(workers) < 2; run() {
		if time.Now().After(deadline) {
			t.Fatal("GOMAXPROCS=2: every Run stayed on its caller")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParRunNested: a Par.Run issued from inside another Par's body — a
// nested fan-out — finishes and gives the serial bits at GOMAXPROCS 1, 2
// and 4.
func TestParRunNested(t *testing.T) {
	const outer, m, k, n = 8, 96, 64, 80
	rng := rand.New(rand.NewSource(10))
	as := make([]Mat, outer)
	want := make([]Mat, outer)
	b := randMat(rng, k, n)
	for i := range as {
		as[i] = randMat(rng, m, k)
		want[i] = MatOf(m, n, make([]float64, m*n))
		GemmNN(as[i], b, false, want[i])
	}
	inner := make([]*Par, outer)
	got := make([]Mat, outer)
	for i := range inner {
		inner[i] = NewPar()
		got[i] = MatOf(m, n, make([]float64, m*n))
	}
	// Each outer block owns its inner Par and output, as a layer cache
	// owns its Par.
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inner[i].GemmNN(as[i], b, false, got[i])
		}
	}
	p := NewPar()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			for i := range got {
				clear(got[i].Data)
			}
			within(t, 30*time.Second, func() { p.Run(outer, 1, parCostThreshold, body) })
			for i := range got {
				for j := range got[i].Data {
					if got[i].Data[j] != want[i].Data[j] {
						t.Fatalf("GOMAXPROCS=%d: product %d element %d = %v, serial %v",
							procs, i, j, got[i].Data[j], want[i].Data[j])
					}
				}
			}
		}
	}
}

// TestFanSlots: every task runs exactly once, on a slot below the
// worker bound, however many fan-outs share the pool at once.
func TestFanSlots(t *testing.T) {
	const callers, tasks, workers = 4, 200, 3
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var f Fan
			ran := make([]int, tasks)
			slots := make([]int, tasks)
			do := func(slot, t int) { ran[t]++; slots[t] = slot }
			for rep := 0; rep < 50; rep++ {
				clear(ran)
				f.Run(tasks, workers, do)
				for t0, r := range ran {
					if r != 1 || slots[t0] < 0 || slots[t0] >= workers {
						t.Errorf("task %d ran %d times, last on slot %d", t0, r, slots[t0])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
