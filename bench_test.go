// Benchmarks regenerating every table and figure of the paper's
// evaluation, the Section 3.1.3 ablations, and the core memory-management
// primitives. The experiment benchmarks share one session, so the
// expensive sweeps (launch, steady-state) are paid once by whichever
// benchmark runs first and reused by the rest — exactly how the paper
// derives several figures from one measurement campaign. Custom metrics
// report the headline result of each experiment next to the simulator's
// own ns/op.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/tlb"
	"repro/internal/workload"
)

var (
	benchOnce    sync.Once
	benchSession *experiments.Session
)

func session() *experiments.Session {
	benchOnce.Do(func() {
		benchSession = experiments.New(experiments.Quick())
	})
	return benchSession
}

// --- One benchmark per table and figure -----------------------------------

func BenchmarkTable1UserKernelSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].UserPct, "user%")
	}
}

func BenchmarkFigure2PageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSharedPct, "shared%")
	}
}

func BenchmarkFigure3FetchBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSharedPct, "shared%")
	}
}

func BenchmarkTable2Commonality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgZygote, "zygote-overlap%")
	}
}

func BenchmarkFigure4Sparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgWasteFactor, "64KB/4KB")
	}
}

func BenchmarkTable3InheritedPTEs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].Warm), "warm-PTEs")
	}
}

func BenchmarkTable4ZygoteFork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Table4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "fork-speedup")
	}
}

func BenchmarkFigure7LaunchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpeedupPctOriginal, "launch-speedup%")
	}
}

func BenchmarkFigure8IcacheStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ReductionPctOriginal, "stall-reduction%")
	}
}

func BenchmarkFigure9LaunchCounters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[2].FaultsNormPct, "shared-faults%")
	}
}

func BenchmarkFigure10FaultReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgReductionPct, "fault-reduction%")
	}
}

func BenchmarkFigure11PTPAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgReductionOriginal, "ptp-reduction%")
	}
}

func BenchmarkFigure12SharedPTPs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Avg2MB, "shared-2mb%")
	}
}

func BenchmarkFigure13IPCTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Figure13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ClientImprovementPct, "client-improvement%")
	}
}

// --- Ablations (design tradeoffs of Section 3.1.3) ------------------------

func BenchmarkAblationStackSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session().StackSharingAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCopyReferenced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session().CopyReferencedAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationL1WriteProtect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session().L1WriteProtectAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLargePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session().LargePageStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureDomainMatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session().DomainMatchStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureSchedulerGrouping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session().SchedulerGrouping(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().Scalability()
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(float64(last.StockPTPKB)/float64(last.SharedPTPKB), "ptp-mem-ratio@32")
	}
}

func BenchmarkCachePollution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().CachePollution()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.StockPTELines)/float64(r.SharedPTELines), "pte-line-ratio")
	}
}

func BenchmarkSMPFourCores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().SMP()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.StockFaults)/float64(r.SharedFaults), "fault-ratio")
	}
}

func BenchmarkChromeFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := session().ChromeFamily()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.StockFaults-r.SharedFaults), "faults-eliminated")
	}
}

// --- Parallel sweep engine ------------------------------------------------

// benchSweepWorkers times one uncached sweep at several worker counts.
// Each iteration builds a fresh session so the sync.Once caches don't
// hide the sweep cost being measured.
func benchSweepWorkers(b *testing.B, run func(*experiments.Session) error) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.New(experiments.Quick())
				s.Parallel = w
				if err := run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLaunchSweepWorkers(b *testing.B) {
	benchSweepWorkers(b, func(s *experiments.Session) error {
		_, err := s.Figure7()
		return err
	})
}

func BenchmarkSteadySweepWorkers(b *testing.B) {
	benchSweepWorkers(b, func(s *experiments.Session) error {
		_, err := s.Figure10()
		return err
	})
}

func BenchmarkMotivationSweepWorkers(b *testing.B) {
	benchSweepWorkers(b, func(s *experiments.Session) error {
		_, err := s.Table1()
		return err
	})
}

// --- Primitive micro-benchmarks -------------------------------------------

func benchBoot(b *testing.B, cfg core.Config) *android.System {
	b.Helper()
	sys, err := android.Boot(cfg, android.LayoutOriginal, session().Universe())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkZygoteForkStock(b *testing.B) {
	sys := benchBoot(b, core.Stock())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.ZygoteFork("app")
		if err != nil {
			b.Fatal(err)
		}
		sys.Kernel.Exit(child)
	}
}

func BenchmarkZygoteForkShared(b *testing.B) {
	sys := benchBoot(b, core.SharedPTP())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.ZygoteFork("app")
		if err != nil {
			b.Fatal(err)
		}
		sys.Kernel.Exit(child)
	}
}

func BenchmarkSoftPageFault(b *testing.B) {
	sys := benchBoot(b, core.Stock())
	child, err := sys.ZygoteFork("app")
	if err != nil {
		b.Fatal(err)
	}
	pages := session().Universe().ZygoteSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := sys.CodePageVA(pages[i%len(pages)])
		err := sys.Kernel.Run(child, func() error { return sys.Kernel.CPU.Fetch(va) })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnshareOnWrite(b *testing.B) {
	sys := benchBoot(b, core.SharedPTP())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.ZygoteFork("app")
		if err != nil {
			b.Fatal(err)
		}
		// First heap write: write fault in a shared PTP -> unshare + COW.
		err = sys.Kernel.Run(child, func() error {
			return sys.Kernel.CPU.Write(0x20000000)
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Kernel.Exit(child)
	}
}

func BenchmarkTLBLookupHit(b *testing.B) {
	t := tlb.New("bench", 128, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	for i := 0; i < 64; i++ {
		t.Insert(arch.VirtAddr(i)<<arch.PageShift, 1,
			arch.FrameNum(i), arch.PTEValid|arch.PTEUser|arch.PTEExec, armv7.DomainUser)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, r := t.Lookup(arch.VirtAddr(i%64)<<arch.PageShift, 1, dacr, arch.AccessFetch); r != tlb.Hit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	h := cache.DefaultHierarchy()
	h.Fetch(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fetch(0x1000)
	}
}

func BenchmarkProfileBuild(b *testing.B) {
	u := session().Universe()
	spec, err := workload.SpecByName("Adobe Reader")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.BuildProfile(u, spec)
	}
}

func BenchmarkAppRunShared(b *testing.B) {
	sys := benchBoot(b, core.SharedPTP())
	prof := workload.BuildProfile(session().Universe(), workload.HelloWorldSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, _, err := sys.LaunchApp(prof, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(); err != nil {
			b.Fatal(err)
		}
		sys.Kernel.Exit(app.Proc)
	}
}
