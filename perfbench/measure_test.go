package main

import (
	"syscall"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := minOpsFor(90); got != 100 {
		t.Errorf("minOpsFor(90) = %d, want 100", got)
	}
	if got := minOpsFor(50); got != 20 {
		t.Errorf("minOpsFor(50) = %d, want 20", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: p90 of 1..100 is the 90th value, with ten beyond it.
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %g, want 7", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestUsageDeltas(t *testing.T) {
	u0 := usage{cpu: 2 * time.Second, maxRSSKB: 100, alloc: 1000}
	u1 := usage{cpu: 3500 * time.Millisecond, maxRSSKB: 250, alloc: 4096}
	d := u1.since(u0)
	if d.cpu != 1500*time.Millisecond || d.alloc != 3096 || d.maxRSSKB != 250 {
		t.Errorf("since = %+v, want cpu 1.5s, alloc 3096, peak RSS 250KB", d)
	}

	// Real deltas: burn CPU and allocate, and the deltas must see it.
	before := readUsage()
	var sink [][]byte
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		sink = append(sink, make([]byte, 1<<10))
	}
	d = readUsage().since(before)
	if d.cpu < 20*time.Millisecond {
		t.Errorf("50ms of spinning measured %v of CPU", d.cpu)
	}
	if d.alloc < uint64(len(sink))<<10 {
		t.Errorf("allocated %d KiB, measured %d bytes", len(sink), d.alloc)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	if d.maxRSSKB <= 0 || d.maxRSSKB > int64(ru.Maxrss) {
		t.Errorf("peak RSS %dKB, getrusage says %dKB", d.maxRSSKB, ru.Maxrss)
	}
}
