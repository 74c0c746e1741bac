package cpu

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// demandPager is a minimal kernel: on a translation fault it maps the page
// to a fresh anonymous frame; on a permission (COW write) fault it makes
// the PTE writable.
type demandPager struct {
	phys   *mem.PhysMem
	global bool // set the global bit + zygote domain on new mappings
	faults int
	fail   bool
}

func (d *demandPager) HandlePageFault(ctx *Context, va arch.VirtAddr, kind arch.AccessKind) error {
	d.faults++
	if d.fail {
		return errors.New("injected fault-handler failure")
	}
	pt := ctx.PT
	domain := armv7.DomainUser
	if d.global {
		domain = armv7.DomainZygote
	}
	if _, err := pt.EnsureLeafForVA(va, domain); err != nil {
		return err
	}
	if p := pt.PTEAt(va); p != nil && p.Valid() {
		// Permission fault: grant write (COW resolution stand-in).
		p.Flags |= arch.PTEWrite
		return nil
	}
	f, err := d.phys.Alloc(mem.FrameAnon)
	if err != nil {
		return err
	}
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
	if kind == arch.AccessWrite {
		flags |= arch.PTEWrite
	}
	if d.global {
		flags |= arch.PTEGlobal
	}
	pt.Set(va, pagetable.PTE{Frame: f, Flags: flags})
	return nil
}

func newCtx(t *testing.T, phys *mem.PhysMem, id int, asid arch.ASID, dacr arch.DACR) *Context {
	t.Helper()
	pt, err := pagetable.New(phys, geoARM)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{ID: id, Name: "test", PT: pt, ASID: asid, DACR: dacr, KernelTextPA: 0x3F000000}
}

func TestFetchDemandPaging(t *testing.T) {
	phys := mem.New(256)
	pager := &demandPager{phys: phys}
	c := New(pager, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)

	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if pager.faults != 1 {
		t.Errorf("faults = %d, want 1", pager.faults)
	}
	if ctx.Stats.SoftFaults != 1 {
		t.Errorf("SoftFaults = %d, want 1", ctx.Stats.SoftFaults)
	}
	// Second fetch of the same page: no fault, TLB hit.
	misses := ctx.Stats.ITLBMainMisses
	if err := c.Fetch(0x8004); err != nil {
		t.Fatal(err)
	}
	if pager.faults != 1 {
		t.Errorf("second fetch faulted")
	}
	if ctx.Stats.ITLBMainMisses != misses {
		t.Errorf("second fetch missed the TLB")
	}
	if ctx.Stats.Instructions != 2 {
		t.Errorf("Instructions = %d, want 2", ctx.Stats.Instructions)
	}
}

func TestFaultChargesCycles(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	before := ctx.Stats.Cycles
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.Cycles - before; got < uint64(c.Costs.SoftFault) {
		t.Errorf("faulting fetch charged %d cycles, want >= %d", got, c.Costs.SoftFault)
	}
	if ctx.Stats.KernelInstructions == 0 {
		t.Error("fault path should execute kernel instructions")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys, fail: true}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	if err := c.Fetch(0x8000); err == nil {
		t.Fatal("expected error from failing handler")
	}
}

func TestNoContext(t *testing.T) {
	c := New(nil, geoARM)
	if err := c.Fetch(0x8000); err == nil {
		t.Fatal("fetch with no context should fail")
	}
}

func TestCOWWriteFault(t *testing.T) {
	phys := mem.New(256)
	pager := &demandPager{phys: phys}
	c := New(pager, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)

	if err := c.Read(0x8000); err != nil { // populate read-only
		t.Fatal(err)
	}
	if err := c.Write(0x8000); err != nil { // permission fault, then fixed
		t.Fatal(err)
	}
	if pager.faults != 2 {
		t.Errorf("faults = %d, want 2 (demand + COW)", pager.faults)
	}
	// The write retried successfully: PTE now writable.
	if p := ctx.PT.PTEAt(0x8000); p == nil || !p.Writable() {
		t.Error("PTE should be writable after COW fault")
	}
}

func TestContextSwitchFlushesMicroTLB(t *testing.T) {
	phys := mem.New(256)
	pager := &demandPager{phys: phys}
	c := New(pager, geoARM)
	a := newCtx(t, phys, 1, 1, armv7.StockDACR())
	b := newCtx(t, phys, 2, 2, armv7.StockDACR())
	c.ContextSwitch(a)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	c.ContextSwitch(b)
	c.ContextSwitch(a)
	// Micro-TLB was flushed, but the main TLB (ASID mode) still holds the
	// entry: the refetch must not walk or fault.
	misses, faults := a.Stats.ITLBMainMisses, a.Stats.SoftFaults
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if a.Stats.ITLBMainMisses != misses || a.Stats.SoftFaults != faults {
		t.Errorf("ASID-tagged main TLB entry should survive a context switch")
	}
}

func TestNoASIDFlushesMainTLB(t *testing.T) {
	phys := mem.New(256)
	pager := &demandPager{phys: phys}
	c := New(pager, geoARM)
	c.UseASID = false
	a := newCtx(t, phys, 1, 1, armv7.StockDACR())
	b := newCtx(t, phys, 2, 2, armv7.StockDACR())
	c.ContextSwitch(a)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	c.ContextSwitch(b)
	c.ContextSwitch(a)
	misses := a.Stats.ITLBMainMisses
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if a.Stats.ITLBMainMisses != misses+1 {
		t.Errorf("main TLB should have been flushed without ASIDs")
	}
}

func TestKeepGlobalOnFlush(t *testing.T) {
	// The shared-TLB kernel's no-ASID context switch spares global
	// entries: two zygote-like processes ping-ponging keep their shared
	// code translations resident despite the per-switch flush.
	phys := mem.New(256)
	pager := &demandPager{phys: phys, global: true}
	c := New(pager, geoARM)
	c.UseASID = false
	c.KeepGlobalOnFlush = true
	a := newCtx(t, phys, 1, 1, armv7.ZygoteDACR())
	b := newCtx(t, phys, 2, 2, armv7.ZygoteDACR())
	c.ContextSwitch(a)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	tab := a.PT.SlotForVA(0x8000).Table
	b.PT.AttachShared(geoARM.Slot(0x8000), tab, armv7.DomainZygote)
	c.ContextSwitch(b)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if b.Stats.ITLBMainMisses != 0 {
		t.Errorf("global entry should survive the no-ASID switch, got %d misses",
			b.Stats.ITLBMainMisses)
	}
	// Without the flag, the same switch flushes everything.
	c2 := New(pager, geoARM)
	c2.UseASID = false
	a2 := newCtx(t, phys, 3, 3, armv7.ZygoteDACR())
	b2 := newCtx(t, phys, 4, 4, armv7.ZygoteDACR())
	c2.ContextSwitch(a2)
	if err := c2.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	tab2 := a2.PT.SlotForVA(0x8000).Table
	b2.PT.AttachShared(geoARM.Slot(0x8000), tab2, armv7.DomainZygote)
	c2.ContextSwitch(b2)
	if err := c2.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if b2.Stats.ITLBMainMisses == 0 {
		t.Error("full flush should force a walk")
	}
}

func TestGlobalEntrySharedAcrossContexts(t *testing.T) {
	// Two zygote-like processes share one page table PTP whose PTEs are
	// global and in the zygote domain: the second process's fetch must hit
	// the TLB entry loaded by the first, despite a different ASID.
	phys := mem.New(256)
	pagerA := &demandPager{phys: phys, global: true}
	c := New(pagerA, geoARM)
	a := newCtx(t, phys, 1, 1, armv7.ZygoteDACR())
	b := newCtx(t, phys, 2, 2, armv7.ZygoteDACR())
	c.ContextSwitch(a)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	// Process b shares the same L2 table (as with a shared PTP).
	tab := a.PT.SlotForVA(0x8000).Table
	b.PT.AttachShared(geoARM.Slot(0x8000), tab, armv7.DomainZygote)

	c.ContextSwitch(b)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if b.Stats.ITLBMainMisses != 0 {
		t.Errorf("global TLB entry should serve process b without a walk (misses=%d)", b.Stats.ITLBMainMisses)
	}
	if b.Stats.SoftFaults != 0 {
		t.Errorf("process b should not fault on the shared translation")
	}
}

func TestDomainFaultForNonZygote(t *testing.T) {
	// A non-zygote process trips over a global zygote-domain entry: the
	// domain-fault handler flushes it, and the retry walks the process's
	// own page table (here, demand-paging a private page).
	phys := mem.New(256)
	zygotePager := &demandPager{phys: phys, global: true}
	c := New(zygotePager, geoARM)
	zyg := newCtx(t, phys, 1, 1, armv7.ZygoteDACR())
	c.ContextSwitch(zyg)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}

	c.Handler = &demandPager{phys: phys} // private pager for the daemon
	daemon := newCtx(t, phys, 2, 2, armv7.StockDACR())
	c.ContextSwitch(daemon)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if daemon.Stats.DomainFaults != 1 {
		t.Errorf("DomainFaults = %d, want 1", daemon.Stats.DomainFaults)
	}
	// The daemon got its own private translation.
	if p := daemon.PT.PTEAt(0x8000); p == nil || !p.Valid() || p.Global() {
		t.Errorf("daemon should have a private non-global PTE, got %+v", p)
	}
	// And the zygote's global entry was flushed from the TLB, so the
	// zygote re-walks (but does not re-fault: its PTE is still there).
	c.ContextSwitch(zyg)
	faults := zyg.Stats.SoftFaults
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if zyg.Stats.SoftFaults != faults {
		t.Errorf("zygote should not re-fault after domain flush")
	}
}

func TestDomainFaultFlushesLargeGlobalEntry(t *testing.T) {
	// A zygote loads a global zygote-domain 64KB entry; a non-zygote
	// process then fetches inside the block at a VA that is not its
	// base. The entry stores the block's base VPN, and the domain-fault
	// handler must still flush it, or every retry trips over it again.
	phys := mem.New(1 << 12)
	c := New(&demandPager{phys: phys}, geoARM)
	zyg := newCtx(t, phys, 1, 1, armv7.ZygoteDACR())
	const block = arch.VirtAddr(0x40000000)
	if _, err := zyg.PT.EnsureLeafForVA(block, armv7.DomainZygote); err != nil {
		t.Fatal(err)
	}
	zyg.PT.SetLarge(block, 1<<11, arch.PTEValid|arch.PTEUser|arch.PTEExec|arch.PTEGlobal, 0)
	c.ContextSwitch(zyg)
	if err := c.Fetch(block); err != nil {
		t.Fatal(err)
	}
	if _, global := c.Main.Occupancy(); global != 1 {
		t.Fatalf("zygote fetch left %d global main-TLB entries, want the 64KB entry", global)
	}

	daemon := newCtx(t, phys, 2, 2, armv7.StockDACR())
	c.ContextSwitch(daemon)
	va := block + 3*arch.PageSize + 0x40
	if err := c.Fetch(va); err != nil {
		t.Fatal(err)
	}
	if daemon.Stats.DomainFaults != 1 {
		t.Errorf("DomainFaults = %d, want 1", daemon.Stats.DomainFaults)
	}
	if _, global := c.Main.Occupancy(); global != 0 {
		t.Errorf("%d global main-TLB entries survived the domain fault", global)
	}
	if p := daemon.PT.PTEAt(va); p == nil || !p.Valid() || p.Global() {
		t.Errorf("daemon should have a private non-global PTE, got %+v", p)
	}
}

func TestStallAccounting(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.ITLBStallCycles == 0 {
		t.Error("cold fetch should accrue ITLB stall cycles")
	}
	if ctx.Stats.ICacheStallCycles == 0 {
		t.Error("cold fetch should accrue I-cache stall cycles")
	}
	stalls := ctx.Stats.ITLBStallCycles
	icache := ctx.Stats.ICacheStallCycles
	if err := c.Fetch(0x8000); err != nil { // warm: same line, TLB hit
		t.Fatal(err)
	}
	if ctx.Stats.ITLBStallCycles != stalls {
		t.Error("warm fetch should not accrue ITLB stalls")
	}
	if ctx.Stats.ICacheStallCycles != icache {
		t.Error("warm fetch should not accrue I-cache stalls")
	}
}

func TestDataSideCounters(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	if err := c.Read(0x9000); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.DTLBMainMisses == 0 {
		t.Error("cold read should miss the data TLB")
	}
	if ctx.Stats.ITLBMainMisses != 0 {
		t.Error("data read must not touch instruction counters")
	}
}

func TestKernelExecPollutesICache(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	before := c.Caches.L1I.Stats().Misses
	c.KernelExec(1024)
	if c.Caches.L1I.Stats().Misses <= before {
		t.Error("kernel execution should miss (and fill) the I-cache")
	}
	if ctx.Stats.KernelInstructions != 256 {
		t.Errorf("KernelInstructions = %d, want 256", ctx.Stats.KernelInstructions)
	}
}

func TestTouch(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	if err := c.Touch(0xA000, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Touch(0xB000, true); err != nil {
		t.Fatal(err)
	}
	if p := ctx.PT.PTEAt(0xB000); p == nil || !p.Writable() {
		t.Error("Touch(write) should produce a writable mapping")
	}
}

func TestContextSwitchSameContextFree(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	cycles := ctx.Stats.Cycles
	c.ContextSwitch(ctx)
	if ctx.Stats.Cycles != cycles {
		t.Error("re-switching to the same context must be free")
	}
	if ctx.Stats.ContextSwitchesIn != 1 {
		t.Errorf("ContextSwitchesIn = %d, want 1", ctx.Stats.ContextSwitchesIn)
	}
}

func TestFetchBlockClampsToPage(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	// 2000 instructions from 0x8FF0 would cross the page; the block must
	// clamp to the page without touching 0x9000.
	if err := c.FetchBlock(0x8FF0, 2000); err != nil {
		t.Fatal(err)
	}
	if p := ctx.PT.PTEAt(0x9000); p != nil && p.Valid() {
		t.Error("FetchBlock must not cross the page boundary")
	}
	if ctx.Stats.Instructions != 4 { // (0x1000-0xFF0)/4
		t.Errorf("Instructions = %d, want 4", ctx.Stats.Instructions)
	}
}

func TestFetchBlockZeroAndNoContext(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	if err := c.FetchBlock(0x8000, 0); err != nil {
		t.Errorf("zero-length block should be a no-op, got %v", err)
	}
	if err := c.FetchBlock(0x8000, 4); err == nil {
		t.Error("block with no context should fail")
	}
}

func TestChargeUser(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	before := ctx.Stats.Cycles
	c.ChargeUser(1000)
	if ctx.Stats.Instructions != 1000 {
		t.Errorf("Instructions = %d", ctx.Stats.Instructions)
	}
	if ctx.Stats.Cycles-before != 1000 {
		t.Errorf("cycles charged = %d", ctx.Stats.Cycles-before)
	}
	c.ChargeUser(0)
	c.ChargeUser(-5)
	if ctx.Stats.Instructions != 1000 {
		t.Error("non-positive charges must be no-ops")
	}
}

type countingSampler struct {
	user, kernel int
}

func (s *countingSampler) Sample(va arch.VirtAddr, kernel bool) {
	if kernel {
		s.kernel++
	} else {
		s.user++
	}
}

func TestSamplingRate(t *testing.T) {
	phys := mem.New(256)
	c := New(&demandPager{phys: phys}, geoARM)
	ctx := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(ctx)
	s := &countingSampler{}
	c.SampleEvery = 100
	c.Sampler = s
	if err := c.FetchBlock(0x8000, 256); err != nil { // one page visit
		t.Fatal(err)
	}
	c.ChargeUser(744)  // total user instructions: 1000
	c.KernelExec(2048) // 512 kernel instructions beyond the fault path
	total := int(ctx.Stats.Instructions + ctx.Stats.KernelInstructions)
	want := total / 100
	got := s.user + s.kernel
	if got < want-1 || got > want+1 {
		t.Errorf("samples = %d, want ~%d for %d instructions", got, want, total)
	}
	if s.kernel == 0 {
		t.Error("kernel instructions should be sampled too (fault path + KernelExec)")
	}
}

// geoARM is the geometry every legacy test drives; these tests pin
// ARMv7 short-descriptor behavior.
var geoARM = armv7.MMU().Geometry()

func TestFlushGlobalsOnSwitchIn(t *testing.T) {
	// On an architecture without domain protection the kernel marks
	// contexts outside the sharing set with FlushGlobals: switching one
	// in must drop the global entries the zygote-like processes loaded,
	// forcing the outsider to walk its own table.
	phys := mem.New(256)
	pager := &demandPager{phys: phys, global: true}
	c := New(pager, geoARM)
	a := newCtx(t, phys, 1, 1, armv7.StockDACR())
	c.ContextSwitch(a)
	if err := c.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	daemon := newCtx(t, phys, 2, 2, armv7.StockDACR())
	daemon.FlushGlobals = true
	c.ContextSwitch(daemon)
	gv, gg := c.Main.Occupancy()
	if gg != 0 {
		t.Errorf("global entries must be flushed when a FlushGlobals context switches in (valid=%d global=%d)", gv, gg)
	}
	// Without the flag the global entry survives (ASID mode).
	c2 := New(pager, geoARM)
	a2 := newCtx(t, phys, 3, 3, armv7.StockDACR())
	c2.ContextSwitch(a2)
	if err := c2.Fetch(0x8000); err != nil {
		t.Fatal(err)
	}
	b2 := newCtx(t, phys, 4, 4, armv7.StockDACR())
	c2.ContextSwitch(b2)
	if _, gg2 := c2.Main.Occupancy(); gg2 == 0 {
		t.Error("global entry should survive an ordinary ASID switch")
	}
}
