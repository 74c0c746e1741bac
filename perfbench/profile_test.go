package main

import (
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/cache.(*Cache).probe":                           "repro/internal/cache",
		"repro/internal/cpu.(*CPU).AccessBatch.func1":                   "repro/internal/cpu",
		"repro/internal/tlb.(*TLB).hitAt (inline)":                      "repro/internal/tlb",
		"repro/internal/arch/armv7.mmu.Name":                            "repro/internal/arch/armv7",
		"repro/internal/imagestore.castSlice[go.shape.uint32]":          "repro/internal/imagestore",
		"repro/internal/alloc.(*Arena[repro/internal/vm.page]).Get":     "repro/internal/alloc",
		"repro/internal/sweep.Run[go.shape.struct { a.b int }].func2.1": "repro/internal/sweep",
		"main.(*runner).runOp":                                          "main",
		"runtime.mallocgc":                                              "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                       "internal/runtime/maps",
		"sort.Strings": "sort",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/cache.(*Cache).probe", "repro/internal/cpu.(*CPU).access"}, "cache.self_s"},
		// An inlined frame is the leaf, not its caller.
		{[]string{"repro/internal/tlb.(*TLB).hitAt (inline)", "repro/internal/cpu.(*CPU).translate"}, "tlb.self_s"},
		{[]string{"repro/internal/arch/sv39.mmu.Walk", "repro/internal/pagetable.(*PageTable).Walk"}, "arch.self_s"},
		{[]string{"repro/internal/alloc.(*Arena[go.shape.int]).Get"}, "alloc.self_s"},
		{[]string{"repro/internal/sweep.Run.func1"}, groupOther},
		{[]string{"main.(*runner).runCell.func1", "main.runPass"}, groupBench},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, groupGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc"}, groupGC},
		{[]string{"runtime.lock2", "runtime.lock (inline)", "runtime.bgsweep"}, groupGC},
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/cache.(*Cache).fill"}, groupRuntime},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "main.snapshot"}, groupRuntime},
		{[]string{"hash/crc32.ieeeCLMUL", "repro/internal/imagestore.decodeImage"}, groupOther},
		{nil, groupOther},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

const tracesOutput = `File: perfbench
Build ID: 0123
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 2.10s, Total samples = 1.27s (60.48%)
-----------+-------------------------------------------------------
     1.10s   repro/internal/cache.(*Cache).probe
             repro/internal/cache.(*Cache).Access (inline)
             repro/internal/cpu.(*CPU).access
-----------+-------------------------------------------------------
     100ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   runtime.memmove
             runtime.growslice
             main.(*Box[go.shape.int]).Add (inline)
-----------+-------------------------------------------------------
      20ms   type:.eq.[2]interface {}
             main.main
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	st, err := parseTraces(strings.NewReader(tracesOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"cache.self_s": 1100 * time.Millisecond,
		groupGC:        100 * time.Millisecond,
		groupRuntime:   50 * time.Millisecond,
		groupOther:     20 * time.Millisecond,
	}
	if len(st.Groups) != len(want) {
		t.Errorf("groups %v, want %v", st.Groups, want)
	}
	var sum time.Duration
	for g, d := range want {
		if st.Groups[g] != d {
			t.Errorf("group %s = %v, want %v", g, st.Groups[g], d)
		}
		sum += st.Groups[g]
	}
	if st.Total != 1270*time.Millisecond || sum != st.Total {
		t.Errorf("total %v, groups sum to %v, want both 1.27s", st.Total, sum)
	}
	for _, bad := range []string{"File: x\n", "Duration: 1s, Total samples = \n"} {
		if _, err := parseTraces(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed output %q was accepted", bad)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.23s": 1230 * time.Millisecond, "2mins": 2 * time.Minute,
		"250us": 250 * time.Microsecond, "5ns": 5,
	} {
		if got, err := parseDuration(s); err != nil || got != want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseDuration("runtime.main"); err == nil {
		t.Error("a function name parsed as a duration")
	}
}
