package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerSpans are the spans whose mean duration is reported, as
// "<span>_ms", among the per-layer metrics.
var layerSpans = []string{
	"android.run", "android.launch", "android.binder", "core.fork", "core.exit",
	"checkpoint.fork", "imagestore.load", "workload.profile", "workload.universe",
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// coreSum sums counter over every core's source src, whose keys read
// "cpuN.<src>.<counter>".
func coreSum(c counters, src, counter string) uint64 {
	var s uint64
	for k, v := range c {
		if strings.HasPrefix(k, "cpu") && strings.HasSuffix(k, "."+src+"."+counter) {
			s += v
		}
	}
	return s
}

// l1Accesses is the L1 instruction plus data cache accesses in c.
func l1Accesses(c counters) uint64 {
	return coreSum(c, "L1I", "accesses") + coreSum(c, "L1D", "accesses")
}

// simMetrics derives the simulated-work metrics from a round's counter
// deltas. They are exact, so they repeat from run to run.
func simMetrics(c counters) map[string]metric {
	cnt := func(v uint64) metric { return metric{float64(v), "count"} }
	hitRatio := func(hits, misses uint64) metric { return metric{ratio(hits, hits+misses), "ratio"} }
	coreHits := func(src string) metric { return hitRatio(coreSum(c, src, "hits"), coreSum(c, src, "misses")) }
	tlbs := func(counter string) uint64 {
		return coreSum(c, "mainTLB", counter) + coreSum(c, "uTLB-I", counter) + coreSum(c, "uTLB-D", counter)
	}
	return map[string]metric{
		"cpu.sim_instructions":     cnt(c["proc.cpu.instructions"] + c["proc.cpu.kernel_instructions"]),
		"cpu.sim_cycles":           cnt(c["proc.cpu.cycles"]),
		"cpu.soft_faults":          cnt(c["proc.cpu.soft_faults"]),
		"cpu.context_switches":     cnt(c["proc.cpu.context_switches_in"]),
		"tlb.main_hit_ratio":       coreHits("mainTLB"),
		"tlb.micro_i_hit_ratio":    coreHits("uTLB-I"),
		"tlb.insertions":           cnt(tlbs("insertions")),
		"tlb.flushed_entries":      cnt(tlbs("flushed_entries")),
		"cache.l1_accesses":        cnt(l1Accesses(c)),
		"cache.l1i_hit_ratio":      coreHits("L1I"),
		"cache.l1d_hit_ratio":      coreHits("L1D"),
		"cache.l2_hit_ratio":       hitRatio(c["L2.hits"], c["L2.misses"]),
		"core.ptes_copied_at_fork": cnt(c["kernel.ptes_copied_at_fork"]),
		"core.ptps_shared_at_fork": cnt(c["kernel.ptps_shared_at_fork"]),
		"core.unshare_ops":         cnt(c["kernel.unshare_ops"]),
		"vm.cow_breaks":            cnt(c["proc.vm.cow_breaks"] + c["zygote.vm.cow_breaks"]),
		"pagetable.ptps_allocated": cnt(c["proc.pagetable.ptps_allocated"] + c["zygote.pagetable.ptps_allocated"]),
	}
}

func opsPerSecond(p *passResult) float64 { return float64(p.Attempted) / p.ElapsedS }

// hostNSPerRef is the untraced pass's median round time per simulated L1
// access; every round simulates the same accesses.
func hostNSPerRef(p *passResult) float64 {
	return ratio(uint64(median(p.RoundS)*1e9), l1Accesses(p.FirstRound))
}

// endToEnd computes the end-to-end metrics from the timed child and the
// set-up samples.
func endToEnd(setups []float64, timed *childResult) map[string]metric {
	tp := timed.Pass
	lat := sortedCopy(tp.OpMS)
	return map[string]metric{
		"ops_per_s":     {opsPerSecond(tp), "1/s"},
		"op_ms_p50":     {percentile(lat, 50), "ms"},
		"op_ms_p90":     {percentile(lat, 90), "ms"},
		"cpu_ms_per_op": {timed.CPUS * 1000 / float64(tp.Attempted), "ms"},
		"setup_s":       {median(setups), "s"},
		"max_rss_mb":    {timed.MaxRSSMB, "MB"},
		// Heap allocated per round, a fixed amount of work however many
		// rounds the pass ran.
		"alloc_mb": {timed.AllocMB / float64(tp.Rounds), "MB"},
	}
}

// perLayer computes the per-layer metrics from the fill step, the
// traced child, the untraced child it is compared with, and the traced
// child's CPU profile.
func perLayer(fill fillStats, timed, traced *childResult, self selfTimes) map[string]metric {
	xp := traced.Pass
	m := map[string]metric{
		"android.boot_ms":            {fill.BootMS, "ms"},
		"checkpoint.capture_ms":      {fill.CaptureMS, "ms"},
		"imagestore.save_ms":         {fill.SaveMS, "ms"},
		"imagestore.load_hit_ratio":  {ratio(uint64(traced.LoadHits), uint64(traced.Loads)), "ratio"},
		"imagestore.mapped_mb":       {traced.MappedMB, "MB"},
		"checkpoint.image_hit_ratio": {1 - ratio(uint64(traced.ImageBoots), uint64(traced.ImageCalls)), "ratio"},
		"sim.host_ns_per_ref":        {hostNSPerRef(timed.Pass), "ns"},
		"tracing_overhead_pct":       {100 * (1 - opsPerSecond(xp)/opsPerSecond(timed.Pass)), "%"},
		"profile.total_s":            {self.Total.Seconds(), "s"},
	}
	for _, s := range layerSpans {
		m[s+"_ms"] = metric{traced.Spans[s].MeanMS, "ms"}
	}
	for k, v := range simMetrics(xp.FirstRound) {
		m[k] = v
	}
	for _, g := range groups() {
		m[g] = metric{self.Groups[g].Seconds(), "s"}
	}
	return m
}

// report turns the children's results into the output line and prints a
// readable summary on standard error.
func report(ctx context.Context, o options, fill fillStats, refTotals uint64, setups []float64, timed, traced *childResult) (*result, error) {
	tp := timed.Pass
	if tp.Attempted == 0 {
		return nil, fmt.Errorf("the timed pass ran no ops")
	}
	out := &result{Attempted: tp.Attempted, Failed: tp.Failed}
	errs := append([]string(nil), tp.Errors...)
	if timed.ImageBoots > 0 {
		errs = append(errs, fmt.Sprintf("set-up booted %d images the store should have served", timed.ImageBoots))
	}
	lat := sortedCopy(tp.OpMS)
	top := highestPercentile(len(lat))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.2fs over %d whole rounds, %d failed (fail_ratio %.4g); "+
		"p%g = %.3f ms is the highest percentile with %d of the %d samples beyond it\n",
		o.workload, o.seed, tp.Attempted, tp.ElapsedS, tp.Rounds, tp.Failed, float64(tp.Failed)/float64(tp.Attempted),
		top, percentile(lat, top), minBeyond, len(lat))

	fmt.Fprintf(os.Stderr, "perfbench: seconds per round %.3f; set-up seconds per process %.4f\n", tp.RoundS, setups)
	if traced == nil {
		out.Metrics = endToEnd(setups, timed)
	} else {
		xp := traced.Pass
		out.Attempted += xp.Attempted
		out.Failed += xp.Failed
		errs = append(errs, xp.Errors...)
		if xp.FirstRound.digest() != refTotals {
			errs = append(errs, "the traced round's counters differ from the reference round")
		}
		self, err := profileSelfTimes(ctx, filepath.Join(traceDir(o.workload), "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		var sum time.Duration
		for _, d := range self.Groups {
			sum += d
		}
		// pprof rounds the printed total to its unit's precision.
		if d := sum - self.Total; d > 10*time.Millisecond || d < -10*time.Millisecond {
			errs = append(errs, fmt.Sprintf("self times sum to %v, the profile holds %v", sum, self.Total))
		}
		out.Metrics = perLayer(fill, timed, traced, self)
		var idle []string
		for _, s := range layerSpans {
			if traced.Spans[s].Calls == 0 {
				idle = append(idle, s+"_ms")
			}
		}
		for _, g := range groups() {
			if self.Groups[g] == 0 {
				idle = append(idle, g)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: zero here (no calls, or no profile samples): %s\n", o.workload, strings.Join(idle, ", "))
		fmt.Fprintf(os.Stderr, "perfbench: spans and CPU profile in %s\n", traceDir(o.workload))
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	out.Correct = len(errs) == 0 && out.Failed == 0
	return out, nil
}
