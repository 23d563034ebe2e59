package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle sample (mean of the two middle ones for an even
// count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100, nearest rank). It
// refuses a percentile that has fewer than ten samples beyond it: a p99 of
// 200 samples is two samples' worth of evidence.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0,100)", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need 10", p, n, beyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// highestPercentile reports the highest of p99/p95/p90 the sample count
// supports, for printing beside a median.
func highestPercentile(samples []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99, 95, 90} {
		if v, err := percentile(samples, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread -compare judges bounds by.
// Quartiles use the same exclusive method as Python's statistics.quantiles.
func quartileSpread(samples []float64) float64 {
	n := len(samples)
	med := median(samples)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only fails on a bad pointer; a zero delta shows in the metric
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func heapMB(before, after uint64) float64 {
	return (float64(after) - float64(before)) / (1 << 20)
}
