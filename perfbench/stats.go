package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorting xs in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and reports the live heap in bytes. The
// second collection empties the sync.Pool victim caches the first one
// filled, so pooled buffers do not count as live.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
