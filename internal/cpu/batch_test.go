package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pagetable"
)

// The scalar-vs-batched differential: two identical machines execute the
// same randomized reference program, one through the per-reference entry
// points (Fetch/Read/Write/FetchBlock), the other through AccessBatch,
// and every piece of architectural state must come out bit-identical.
// The program mixes strides (zero, sub-line, page, multi-page, negative,
// larger than a large page), large-page mappings, demand faults, runs
// overflowing the mapped region, context switches, and empty runs.

const (
	// diffLargeVA is a large-page-aligned window backed by SetLarge
	// mappings; fused runs across it coalesce in the TLB at large-page
	// granularity. ARMv7 large pages are 64KB, so 1GB is aligned.
	diffLargeVA = arch.VirtAddr(0x40000000)
	// diffLargeBlocks large pages back the window.
	diffLargeBlocks = 4
)

// diffMachine is one side of the differential: a core, its demand pager,
// three contexts with distinct ASIDs, and (optionally) a recorded event
// stream.
type diffMachine struct {
	cpu    *CPU
	pager  *demandPager
	ctxs   []*Context
	events []obs.Event
}

func newDiffMachine(t *testing.T, observe bool) *diffMachine {
	t.Helper()
	phys := mem.New(1 << 18)
	pager := &demandPager{phys: phys}
	m := &diffMachine{cpu: New(pager, geoARM), pager: pager}
	ppl := geoARM.PagesPerLarge()
	span := arch.VirtAddr(ppl * arch.PageSize)
	for i := 1; i <= 3; i++ {
		ctx := newCtx(t, phys, i, arch.ASID(i), armv7.StockDACR())
		// Premap the large window: each block one large page over a
		// fabricated aligned physical block, executable and writable, so
		// fetches, reads, and writes all hit without faulting.
		for blk := 0; blk < diffLargeBlocks; blk++ {
			va := diffLargeVA + arch.VirtAddr(blk)*span
			if _, err := ctx.PT.EnsureLeafForVA(va, armv7.DomainUser); err != nil {
				t.Fatal(err)
			}
			frame := arch.FrameNum((1 << 17) + (i*diffLargeBlocks+blk)*ppl)
			ctx.PT.SetLarge(va, frame,
				arch.PTEValid|arch.PTEUser|arch.PTEExec|arch.PTEWrite, 0)
		}
		m.ctxs = append(m.ctxs, ctx)
	}
	if observe {
		bus := obs.NewBus()
		bus.Subscribe(obs.ObserverFunc(func(ev obs.Event) {
			m.events = append(m.events, ev)
		}), obs.EvTLBInsert, obs.EvTLBEvict, obs.EvCacheFill, obs.EvPageFault)
		m.cpu.AttachBus(bus)
	}
	m.cpu.ContextSwitch(m.ctxs[0])
	return m
}

// diffOp is one step of the program: a context switch (ctx >= 0) or a
// batch of runs issued back to back.
type diffOp struct {
	ctx  int
	runs []arch.RefRun
}

// buildDiffProgram generates the randomized program — pure data, so both
// machines execute exactly the same references.
func buildDiffProgram(rng *rand.Rand, minRefs int) (prog []diffOp, refs int) {
	pageStride := arch.VirtAddr(arch.PageSize)
	largeSpan := arch.VirtAddr(diffLargeBlocks * geoARM.PagesPerLarge() * arch.PageSize)
	strides := []arch.VirtAddr{
		0, 4, 64, 1024,
		pageStride, 3 * pageStride,
		geoARM.LargePageSize() + pageStride, // larger than a large page
		^arch.VirtAddr(4) + 1, -pageStride,  // descending (VirtAddr wraps)
	}
	newRun := func() arch.RefRun {
		var va arch.VirtAddr
		switch p := rng.Intn(100); {
		case p < 35:
			// Demand-paged low region: faults on first touch, COW-style
			// write-permission faults after a read maps a page read-only.
			va = arch.VirtAddr(rng.Intn(1<<20)) &^ 3
		case p < 65:
			// Inside the premapped large window: the fused path's best case.
			va = diffLargeVA + arch.VirtAddr(rng.Intn(int(largeSpan)))&^3
		case p < 80:
			// Near the end of the window, so the run overflows the mapped
			// region into demand-paged territory mid-run.
			va = diffLargeVA + largeSpan - 2*pageStride + arch.VirtAddr(rng.Intn(arch.PageSize))&^3
		default:
			// A second demand-paged region far from the others.
			va = 0x60000000 + arch.VirtAddr(rng.Intn(1<<20))&^3
		}
		stride := strides[rng.Intn(len(strides))]
		count := rng.Intn(70) - 3 // sometimes zero or negative: empty runs
		if (stride > 2*pageStride && stride < arch.VirtAddr(0)-2*pageStride) && count > 20 {
			count = 20 // bound the page span of huge-stride runs
		}
		kind := []arch.AccessKind{arch.AccessFetch, arch.AccessRead, arch.AccessWrite}[rng.Intn(3)]
		block := 0
		if kind == arch.AccessFetch && rng.Intn(2) == 0 {
			block = []int{4, 16, 64}[rng.Intn(3)]
		}
		return arch.RefRun{VA: va, Stride: stride, Count: count, Kind: kind, Block: block}
	}
	for refs < minRefs {
		if rng.Intn(100) < 8 {
			prog = append(prog, diffOp{ctx: rng.Intn(3)})
			continue
		}
		op := diffOp{ctx: -1}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			r := newRun()
			if r.Count > 0 {
				refs += r.Count
			}
			op.runs = append(op.runs, r)
		}
		prog = append(prog, op)
	}
	return prog, refs
}

// scalarRun executes one run through the public per-reference entry
// points — the independent restatement of the run semantics AccessBatch
// must reproduce.
func scalarRun(t *testing.T, c *CPU, r arch.RefRun) {
	t.Helper()
	va := r.VA
	for i := 0; i < r.Count; i++ {
		var err error
		if r.Kind == arch.AccessFetch && r.Block > 1 {
			err = c.FetchBlock(va, r.Block)
		} else {
			switch r.Kind {
			case arch.AccessFetch:
				err = c.Fetch(va)
			case arch.AccessRead:
				err = c.Read(va)
			default:
				err = c.Write(va)
			}
		}
		if err != nil {
			t.Fatalf("scalar %v at %#x: %v", r.Kind, va, err)
		}
		va += r.Stride
	}
}

func (m *diffMachine) snapshot() Snapshot {
	return m.cpu.SnapshotState(func(c *Context) int32 { return int32(c.ID) })
}

func runDifferential(t *testing.T, observe bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5eed))
	prog, refs := buildDiffProgram(rng, 10000)
	if refs < 10000 {
		t.Fatalf("program has %d references, want >= 10000", refs)
	}

	a := newDiffMachine(t, observe) // scalar reference
	b := newDiffMachine(t, observe) // batched

	for opIdx, op := range prog {
		if op.ctx >= 0 {
			a.cpu.ContextSwitch(a.ctxs[op.ctx])
			b.cpu.ContextSwitch(b.ctxs[op.ctx])
			continue
		}
		for _, r := range op.runs {
			scalarRun(t, a.cpu, r)
		}
		if err := b.cpu.AccessBatch(op.runs); err != nil {
			t.Fatalf("op %d: AccessBatch: %v", opIdx, err)
		}
		// Per-op stats comparison pinpoints the first diverging operation.
		for j := range a.ctxs {
			if !reflect.DeepEqual(a.ctxs[j].Stats, b.ctxs[j].Stats) {
				t.Fatalf("op %d (runs %+v): ctx %d stats diverge\nscalar:  %+v\nbatched: %+v",
					opIdx, op.runs, j+1, a.ctxs[j].Stats, b.ctxs[j].Stats)
			}
		}
	}

	if a.pager.faults != b.pager.faults {
		t.Errorf("page faults diverge: scalar %d, batched %d", a.pager.faults, b.pager.faults)
	}
	sa, sb := a.snapshot(), b.snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("core snapshots diverge\nscalar:  %+v\nbatched: %+v", sa, sb)
	}
	if l2a, l2b := a.cpu.Caches.L2.SnapshotState(), b.cpu.Caches.L2.SnapshotState(); !reflect.DeepEqual(l2a, l2b) {
		t.Error("L2 snapshots diverge")
	}
	if observe && !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("event streams diverge: scalar %d events, batched %d events",
			len(a.events), len(b.events))
	}
}

// TestScalarBatchedDifferential drives >= 10k randomized references
// through both execution paths. Without an observer the fused fast path
// handles hit spans; with one, AccessBatch must fall back to the scalar
// loop and reproduce the exact event stream.
func TestScalarBatchedDifferential(t *testing.T) {
	t.Run("fused", func(t *testing.T) { runDifferential(t, false) })
	t.Run("observed", func(t *testing.T) { runDifferential(t, true) })
}

// TestAccessBatchEmptyRuns: zero and negative counts are skipped without
// touching any state, matching the scalar loop's empty iteration.
func TestAccessBatchEmptyRuns(t *testing.T) {
	phys := mem.New(256)
	pager := &demandPager{phys: phys}
	c := New(pager, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	before := ctx.Stats // the switch itself charges cycles; runs must add nothing
	err := c.AccessBatch([]arch.RefRun{
		{VA: 0x8000, Stride: 4, Count: 0, Kind: arch.AccessFetch},
		{VA: 0x8000, Stride: 4, Count: -12, Kind: arch.AccessWrite},
		{VA: 0x8000, Count: -1, Kind: arch.AccessFetch, Block: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats != before || pager.faults != 0 {
		t.Errorf("empty runs touched state: %+v, faults %d", ctx.Stats, pager.faults)
	}
}

// TestAccessBatchNoContext: every run shape must report the no-context
// error the scalar entry points report.
func TestAccessBatchNoContext(t *testing.T) {
	c := New(nil, geoARM)
	for _, r := range []arch.RefRun{
		{VA: 0x8000, Count: 1, Kind: arch.AccessFetch},
		{VA: 0x8000, Count: 4, Kind: arch.AccessRead, Stride: 4},
		{VA: 0x8000, Count: 2, Kind: arch.AccessFetch, Block: 16},
	} {
		if err := c.AccessBatch([]arch.RefRun{r}); err == nil {
			t.Errorf("run %+v with no context: want error", r)
		}
	}
}

// TestFetchBlockPageBoundary: a block starting near the end of a page
// must clamp at the boundary with and without a sampling period — same
// instruction count, same stall accounting, and no touch of the next
// page.
func TestFetchBlockPageBoundary(t *testing.T) {
	build := func(sampleEvery int) (*CPU, *Context) {
		phys := mem.New(256)
		c := New(&demandPager{phys: phys}, geoARM)
		c.SampleEvery = sampleEvery // nil sampler: no ticks
		ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
		c.ContextSwitch(ctx)
		return c, ctx
	}
	fused, fctx := build(0)
	scalar, sctx := build(1)

	const va = arch.VirtAddr(0x8000 + arch.PageSize - 3*4) // 3 instruction slots left
	for _, m := range []*CPU{fused, scalar} {
		if err := m.Fetch(0x8000); err != nil { // warm the page: the block hits the micro-TLB
			t.Fatal(err)
		}
		if err := m.FetchBlock(va, 100); err != nil {
			t.Fatal(err)
		}
	}
	if fctx.Stats.Instructions != 1+3 {
		t.Errorf("fused Instructions = %d, want 4 (1 warm + 3 clamped)", fctx.Stats.Instructions)
	}
	if !reflect.DeepEqual(fctx.Stats, sctx.Stats) {
		t.Errorf("fused and scalar block visits diverge\nfused:  %+v\nscalar: %+v", fctx.Stats, sctx.Stats)
	}
	if p := fctx.PT.PTEAt(0x9000); p != nil && p.Valid() {
		t.Error("clamped block crossed into the next page")
	}
	snap := func(c *CPU) Snapshot { return c.SnapshotState(func(*Context) int32 { return 1 }) }
	if !reflect.DeepEqual(snap(fused), snap(scalar)) {
		t.Error("fused and scalar block visits leave different core state")
	}
}

// benchMachine builds a warmed single-context machine whose large window
// is fully resident, so benchmarks measure the hit path.
func benchMachine(b *testing.B) *CPU {
	b.Helper()
	phys := mem.New(1 << 18)
	c := New(&demandPager{phys: phys}, geoARM)
	pt, err := pagetable.New(phys, geoARM)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &Context{ID: 1, Name: "bench", PT: pt, ASID: 1, DACR: armv7.StockDACR(), KernelTextPA: 0x3F000000}
	ppl := geoARM.PagesPerLarge()
	span := arch.VirtAddr(ppl * arch.PageSize)
	for blk := 0; blk < diffLargeBlocks; blk++ {
		va := diffLargeVA + arch.VirtAddr(blk)*span
		if _, err := ctx.PT.EnsureLeafForVA(va, armv7.DomainUser); err != nil {
			b.Fatal(err)
		}
		ctx.PT.SetLarge(va, arch.FrameNum((1<<17)+blk*ppl),
			arch.PTEValid|arch.PTEUser|arch.PTEExec|arch.PTEWrite, 0)
	}
	c.ContextSwitch(ctx)
	return c
}

func benchRuns(kind arch.AccessKind, block int) []arch.RefRun {
	return []arch.RefRun{{
		VA:     diffLargeVA,
		Stride: arch.VirtAddr(arch.PageSize),
		Count:  diffLargeBlocks * geoARM.PagesPerLarge(),
		Kind:   kind,
		Block:  block,
	}}
}

func benchAccessBatch(b *testing.B, kind arch.AccessKind, block int) {
	c := benchMachine(b)
	runs := benchRuns(kind, block)
	if err := c.AccessBatch(runs); err != nil { // warm TLB and caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AccessBatch(runs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessBatchFetch(b *testing.B) { benchAccessBatch(b, arch.AccessFetch, 0) }
func BenchmarkAccessBatchWrite(b *testing.B) { benchAccessBatch(b, arch.AccessWrite, 0) }
func BenchmarkAccessBatchBlock(b *testing.B) { benchAccessBatch(b, arch.AccessFetch, 16) }

// BenchmarkAccessBatchScalar is the same page sweep through the scalar
// entry points — the before/after pair for the batched engine.
func BenchmarkAccessBatchScalar(b *testing.B) {
	c := benchMachine(b)
	runs := benchRuns(arch.AccessFetch, 0)
	if err := c.AccessBatch(runs); err != nil {
		b.Fatal(err)
	}
	r := runs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := r.VA
		for j := 0; j < r.Count; j++ {
			if err := c.Fetch(va); err != nil {
				b.Fatal(err)
			}
			va += r.Stride
		}
	}
}
