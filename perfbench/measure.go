package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
// The epsilon keeps products like 99.9% of 10000 from rounding up past
// an exact rank.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// reportable lists the percentiles the benchmark may report, lowest
// first.
var reportable = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest reportable percentile with at
// least minBeyond of n samples above its rank, or 0 if none has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if n-rankOf(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// minOpsFor is the fewest samples for which percentile p has at least
// minBeyond samples beyond it.
func minOpsFor(p float64) int {
	n := 1
	for n-rankOf(p, n) < minBeyond {
		n++
	}
	return n
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// usage is the process resource figures a pass is measured by.
type usage struct {
	cpu      time.Duration // user + system CPU
	maxRSSKB int64
	alloc    uint64 // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: int64(ru.Maxrss),
		alloc:    ms.TotalAlloc,
	}
}

// since returns the CPU time and heap bytes spent from u0 to u, and the
// peak RSS at u.
func (u usage) since(u0 usage) usage {
	return usage{cpu: u.cpu - u0.cpu, maxRSSKB: u.maxRSSKB, alloc: u.alloc - u0.alloc}
}
