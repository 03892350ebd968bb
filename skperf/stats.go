package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// latencies collects one closed-loop client's operation latencies in
// nanoseconds. Each recorder is owned by a single goroutine.
type latencies struct {
	ns []int64
}

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

// merge concatenates recorders into one sorted sample.
func merge(ls ...*latencies) []int64 {
	var n int
	for _, l := range ls {
		n += len(l.ns)
	}
	out := make([]int64, 0, n)
	for _, l := range ls {
		out = append(out, l.ns...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileUs returns the q-quantile of a sorted nanosecond sample in
// microseconds (nearest rank), or 0 for an empty sample.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// procSample is the process-wide cost state at one window edge.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user+sys
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	goroutines int
}

// sampleCPU takes the time and the process CPU only.
func sampleCPU() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func sampleProc() procSample {
	p := sampleCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.numGC, p.pauseNs = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	p.goroutines = runtime.NumGoroutine()
	return p
}

// heapEvery is the live-heap sampling period inside a window.
const heapEvery = 50 * time.Millisecond

// liveHeapMiB is the heap the last collection found live.
func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reporting 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
