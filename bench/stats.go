package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// heapSampler polls the in-use heap every 50 ms (traced runs only: each
// sample stops the world for a few microseconds).
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
	gc0  runtime.MemStats
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	runtime.ReadMemStats(&h.gc0)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				if m.HeapInuse > h.peak {
					h.peak = m.HeapInuse
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and reports GC cycles, total GC pause and the
// in-use heap peak since the start.
func (h *heapSampler) finish(raw map[string]float64) {
	close(h.stop)
	h.wg.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > h.peak {
		h.peak = m.HeapInuse
	}
	raw["runtime.gc_cycles"] = float64(m.NumGC - h.gc0.NumGC)
	raw["runtime.gc_pause_ms"] = float64(m.PauseTotalNs-h.gc0.PauseTotalNs) / 1e6
	raw["runtime.heap_inuse_peak_mb"] = float64(h.peak) / (1 << 20)
}
