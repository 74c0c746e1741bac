package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/tlb"
)

// The FetchBlock differential: one machine visits pages through
// FetchBlock, a twin through fetchBlockScalar — the page visit as a
// sequence of independent steps (translate and fetch the first line,
// translate the block again, fetch the remaining lines) — and every
// counter and every TLB and cache state must come out identical.
// FetchBlock commits the block's second translation at the slot the
// first one resolved at instead of probing again; this test is what pins
// that against the plain sequence, with and without a sampler.

// fetchBlockScalar is the reference page visit: n sequential
// instructions from va within one page, the first through the full
// access path, the block re-translated by an explicit micro-TLB lookup,
// and the remaining lines fetched as one cache run.
func (c *CPU) fetchBlockScalar(va arch.VirtAddr, n int) error {
	if n <= 0 {
		return nil
	}
	const instrSize = 4
	const lineSize = 32
	if int(va&arch.PageMask)+n*instrSize > arch.PageSize {
		n = (arch.PageSize - int(va&arch.PageMask)) / instrSize
	}
	ctx := c.cur
	if ctx == nil {
		return fmt.Errorf("cpu: fetch block at %#x with no context", va)
	}
	if _, _, err := c.access(va, arch.AccessFetch); err != nil {
		return err
	}
	rest := n - 1
	if rest <= 0 {
		return nil
	}
	ctx.Stats.Instructions += uint64(rest)
	c.charge(rest * c.Costs.BaseInstr)
	if c.SampleEvery > 0 {
		c.tick(va, false, rest)
	}
	e, _, r := c.MicroI.Lookup(va, ctx.ASID, ctx.DACR, arch.AccessFetch)
	if r != tlb.Hit {
		return fmt.Errorf("cpu: lost translation for block at %#x", va)
	}
	pageBase := c.physAddr(e.Frame(), e.Flags(), va) - arch.PhysAddr(va&arch.PageMask)
	firstLine := int(va&arch.PageMask) / lineSize
	lastLine := (int(va&arch.PageMask) + n*instrSize - 1) / lineSize
	if lines := lastLine - firstLine; lines > 0 {
		stall := c.Caches.FetchRun(pageBase+arch.PhysAddr((firstLine+1)*lineSize), lines)
		if stall > 0 {
			ctx.Stats.ICacheStallCycles += uint64(stall)
			c.charge(stall)
		}
	}
	return nil
}

// Address regions of the FetchBlock differential.
const (
	// fbShared is mapped on demand as global zygote-domain pages for
	// the zygote-like contexts and as private pages for the others, so
	// the others take domain faults on the zygotes' global entries.
	fbShared = arch.VirtAddr(0x00100000)
	// fbLargeGlobal holds one global zygote-domain 64KB page premapped
	// in the zygote-like contexts only.
	fbLargeGlobal = arch.VirtAddr(0x50000000)
)

// splitPager maps pages global in the zygote domain for contexts whose
// DACR grants it, and private in the user domain for the rest.
type splitPager struct {
	zygote, private *demandPager
}

func (p *splitPager) HandlePageFault(ctx *Context, va arch.VirtAddr, kind arch.AccessKind) error {
	if ctx.DACR == armv7.ZygoteDACR() {
		return p.zygote.HandlePageFault(ctx, va, kind)
	}
	return p.private.HandlePageFault(ctx, va, kind)
}

// fbMachine is one side of the differential: the batch differential's
// three stock contexts plus two zygote-like ones.
type fbMachine struct {
	*diffMachine
	samples []fbSample
}

type fbSample struct {
	va     arch.VirtAddr
	kernel bool
}

func (m *fbMachine) Sample(va arch.VirtAddr, kernel bool) {
	m.samples = append(m.samples, fbSample{va, kernel})
}

func newFBMachine(t *testing.T, sampleEvery int, useASID bool) *fbMachine {
	t.Helper()
	m := &fbMachine{diffMachine: newDiffMachine(t, false)}
	phys := m.pager.phys
	m.cpu.Handler = &splitPager{zygote: &demandPager{phys: phys, global: true}, private: m.pager}
	for i := 4; i <= 5; i++ {
		ctx := newCtx(t, phys, i, arch.ASID(i), armv7.ZygoteDACR())
		if _, err := ctx.PT.EnsureLeafForVA(fbLargeGlobal, armv7.DomainZygote); err != nil {
			t.Fatal(err)
		}
		ctx.PT.SetLarge(fbLargeGlobal, 1<<16,
			arch.PTEValid|arch.PTEUser|arch.PTEExec|arch.PTEGlobal, 0)
		m.ctxs = append(m.ctxs, ctx)
	}
	m.cpu.UseASID = useASID
	m.cpu.KeepGlobalOnFlush = !useASID
	m.cpu.SampleEvery = sampleEvery
	if sampleEvery > 0 {
		m.cpu.Sampler = m
	}
	return m
}

// fbVisit is one step of the program: a context switch (ctx >= 0) or a
// page visit of n instructions at va.
type fbVisit struct {
	ctx int
	va  arch.VirtAddr
	n   int
}

func buildFBProgram(rng *rand.Rand, steps, contexts int) []fbVisit {
	largeSpan := diffLargeBlocks * geoARM.PagesPerLarge() * arch.PageSize
	prog := make([]fbVisit, 0, steps)
	for len(prog) < steps {
		if rng.Intn(100) < 10 {
			prog = append(prog, fbVisit{ctx: rng.Intn(contexts)})
			continue
		}
		var va arch.VirtAddr
		switch p := rng.Intn(100); {
		case p < 30:
			va = fbShared + arch.VirtAddr(rng.Intn(24*arch.PageSize))
		case p < 55:
			// A wide demand-paged region: main-TLB misses and
			// micro-TLB evictions.
			va = 0x00800000 + arch.VirtAddr(rng.Intn(256*arch.PageSize))
		case p < 80:
			va = diffLargeVA + arch.VirtAddr(rng.Intn(largeSpan))
		default:
			va = fbLargeGlobal + arch.VirtAddr(rng.Intn(geoARM.PagesPerLarge()*arch.PageSize))
		}
		n := []int{1, 2, 7, 64, 300, 1100}[rng.Intn(6)]
		prog = append(prog, fbVisit{ctx: -1, va: va &^ 3, n: n})
	}
	return prog
}

// TestFetchBlockMatchesScalarSequence runs the differential with and
// without a sampler, with ASIDs on and with them off as the shared-TLB
// kernel runs (each switch flushes the main TLB's non-global entries, so
// more visits miss while the zygotes' global entries survive).
func TestFetchBlockMatchesScalarSequence(t *testing.T) {
	for _, sampleEvery := range []int{0, 7} {
		for _, useASID := range []bool{true, false} {
			t.Run(fmt.Sprintf("sample=%d/asid=%v", sampleEvery, useASID), func(t *testing.T) {
				ref := newFBMachine(t, sampleEvery, useASID)
				got := newFBMachine(t, sampleEvery, useASID)
				seed := int64(0xfb + 2*sampleEvery)
				if useASID {
					seed++
				}
				rng := rand.New(rand.NewSource(seed))
				prog := buildFBProgram(rng, 12000, len(ref.ctxs))
				for i, v := range prog {
					if v.ctx >= 0 {
						ref.cpu.ContextSwitch(ref.ctxs[v.ctx])
						got.cpu.ContextSwitch(got.ctxs[v.ctx])
						continue
					}
					if err := ref.cpu.fetchBlockScalar(v.va, v.n); err != nil {
						t.Fatalf("visit %d: reference: %v", i, err)
					}
					if err := got.cpu.FetchBlock(v.va, v.n); err != nil {
						t.Fatalf("visit %d: FetchBlock: %v", i, err)
					}
					for j := range ref.ctxs {
						if ref.ctxs[j].Stats != got.ctxs[j].Stats {
							t.Fatalf("visit %d (%d instructions at %#x): ctx %d stats diverge\nreference: %+v\nFetchBlock: %+v",
								i, v.n, v.va, ref.ctxs[j].ID, ref.ctxs[j].Stats, got.ctxs[j].Stats)
						}
					}
				}
				if sr, sg := ref.snapshot(), got.snapshot(); !reflect.DeepEqual(sr, sg) {
					t.Errorf("core snapshots diverge\nreference: %+v\nFetchBlock: %+v", sr, sg)
				}
				if l2r, l2g := ref.cpu.Caches.L2.SnapshotState(), got.cpu.Caches.L2.SnapshotState(); !reflect.DeepEqual(l2r, l2g) {
					t.Error("L2 snapshots diverge")
				}
				if !reflect.DeepEqual(ref.samples, got.samples) {
					t.Errorf("samples diverge: reference %d, FetchBlock %d", len(ref.samples), len(got.samples))
				}
				checkFBCoverage(t, ref)
			})
		}
	}
}

// checkFBCoverage fails the test unless the program reached every path
// the differential is meant to cover.
func checkFBCoverage(t *testing.T, m *fbMachine) {
	t.Helper()
	var total Stats
	for _, ctx := range m.ctxs {
		total.ITLBMainMisses += ctx.Stats.ITLBMainMisses
		total.SoftFaults += ctx.Stats.SoftFaults
		total.DomainFaults += ctx.Stats.DomainFaults
		total.ContextSwitchesIn += ctx.Stats.ContextSwitchesIn
	}
	micro := m.cpu.MicroI.Stats()
	if micro.Hits == 0 || micro.Misses == 0 || total.ITLBMainMisses == 0 ||
		total.SoftFaults == 0 || total.DomainFaults == 0 || total.ContextSwitchesIn == 0 {
		t.Errorf("program misses a path: micro-TLB %+v, contexts %+v", micro, total)
	}
	if m.cpu.SampleEvery > 0 && len(m.samples) == 0 {
		t.Error("sampler never fired")
	}
}
