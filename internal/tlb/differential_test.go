package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/arch/sv39"
)

// The differential property test: the indexed TLB and the reference
// linear implementation are driven through identical randomized
// Lookup/Insert/Flush sequences and must agree on every operation's
// result, every counter, and the entire entry array after every step.
// This is the proof obligation for the hot-path index (see the package
// comment): the paper's results are event counts, so the optimization
// must be count-preserving, and entry-state equality is stronger still.

// diffDACRs is the register mix the ops draw from: stock, zygote,
// manager-override, deny-user (domain faults on user entries), and
// all-manager.
func diffDACRs() []arch.DACR {
	deny := arch.DACR(0).WithAccess(armv7.DomainKernel, arch.DomainClient)
	var manager arch.DACR
	for d := uint8(0); d < 4; d++ {
		manager = manager.WithAccess(d, arch.DomainManager)
	}
	return []arch.DACR{
		armv7.StockDACR(),
		armv7.ZygoteDACR(),
		armv7.StockDACR().WithAccess(armv7.DomainUser, arch.DomainManager),
		deny,
		manager,
	}
}

// diffDraw picks the address and address space of one operation.
type diffDraw func(rng *rand.Rand) (arch.VirtAddr, arch.ASID)

// uniformDraw draws from a pool of pages small pages, with offsets
// within pages so VPN extraction is exercised, under asids address
// spaces.
func uniformDraw(pages, asids int) diffDraw {
	return func(rng *rand.Rand) (arch.VirtAddr, arch.ASID) {
		va := arch.VirtAddr(rng.Intn(pages))<<arch.PageShift | arch.VirtAddr(rng.Intn(arch.PageSize))
		return va, arch.ASID(1 + rng.Intn(asids))
	}
}

// Operation codes for diffOp: op in [0, 100) picks the operation, so a
// uniform draw gives each its share of the mix.
const (
	opLookup         = 0
	opInsert         = 55
	opFlushVA        = 85
	opFlushASID      = 90
	opFlushRange     = 93
	opFlushNonGlobal = 96
	opFlushGlobal    = 97
	opFlushAll       = 99
)

// diffOp applies operation op with random operands to both
// implementations and fails the test on any divergence in the
// operation's outcome.
func diffOp(t *testing.T, rng *rand.Rand, indexed *TLB, ref *linearTLB, dacrs []arch.DACR, draw diffDraw, op int) {
	t.Helper()
	va, asid := draw(rng)
	kind := arch.AccessKind(rng.Intn(3))
	dacr := dacrs[rng.Intn(len(dacrs))]

	switch {
	case op < opInsert: // Lookup
		ge, gs, gr := indexed.Lookup(va, asid, dacr, kind)
		we, ws, wr := ref.Lookup(va, asid, dacr, kind)
		if ge != we || gs != ws || gr != wr {
			t.Fatalf("Lookup(%#x, asid %d, dacr %#x, %v) diverged:\n  indexed (%+v, slot %d, %v)\n  reference (%+v, slot %d, %v)",
				va, asid, dacr, kind, ge, gs, gr, we, ws, wr)
		}
	case op < opFlushVA: // Insert
		flags := arch.PTEValid
		if rng.Intn(100) < 80 {
			flags |= arch.PTEUser
		}
		if rng.Intn(2) == 0 {
			flags |= arch.PTEExec
		}
		if rng.Intn(2) == 0 {
			flags |= arch.PTEWrite
		}
		if rng.Intn(100) < 25 {
			flags |= arch.PTEGlobal
		}
		if rng.Intn(100) < 20 {
			flags |= arch.PTELarge
		}
		frame := arch.FrameNum(rng.Intn(1 << 16))
		domain := uint8(rng.Intn(4))
		if gs, ws := indexed.Insert(va, asid, frame, flags, domain), ref.Insert(va, asid, frame, flags, domain); gs != ws {
			t.Fatalf("Insert(%#x, asid %d, flags %#x) filled slot %d, reference slot %d", va, asid, flags, gs, ws)
		}
	case op < opFlushASID: // FlushVA (the domain-fault handler / shootdown path)
		if gn, wn := indexed.FlushVA(va), ref.FlushVA(va); gn != wn {
			t.Fatalf("FlushVA(%#x) diverged: indexed %d, reference %d", va, gn, wn)
		}
	case op < opFlushRange: // FlushASID
		indexed.FlushASID(asid)
		ref.FlushASID(asid)
	case op < opFlushNonGlobal: // FlushRange
		end := va + arch.VirtAddr(rng.Intn(8))<<arch.PageShift + 1
		if gn, wn := indexed.FlushRange(va, end, asid), ref.FlushRange(va, end, asid); gn != wn {
			t.Fatalf("FlushRange(%#x, %#x, asid %d) diverged: indexed %d, reference %d", va, end, asid, gn, wn)
		}
	case op < opFlushGlobal: // FlushNonGlobal (no-ASID context switch)
		if gn, wn := indexed.FlushNonGlobal(), ref.FlushNonGlobal(); gn != wn {
			t.Fatalf("FlushNonGlobal diverged: indexed %d, reference %d", gn, wn)
		}
	case op < opFlushAll: // FlushGlobal (no-domain shared-mapping shootdown)
		if gn, wn := indexed.FlushGlobal(), ref.FlushGlobal(); gn != wn {
			t.Fatalf("FlushGlobal diverged: indexed %d, reference %d", gn, wn)
		}
	default: // FlushAll
		indexed.FlushAll()
		ref.FlushAll()
	}
}

// diffCompareState fails the test unless both implementations hold
// identical entries, counters, and occupancy.
func diffCompareState(t *testing.T, step int, indexed *TLB, ref *linearTLB) {
	t.Helper()
	if !slices.Equal(indexed.entries, ref.entries) {
		for i := range indexed.entries {
			if indexed.entries[i] != ref.entries[i] {
				t.Fatalf("step %d: entry %d diverged:\n  indexed %+v\n  reference %+v",
					step, i, indexed.entries[i], ref.entries[i])
			}
		}
	}
	if indexed.stats != ref.stats {
		t.Fatalf("step %d: stats diverged:\n  indexed %+v\n  reference %+v", step, indexed.stats, ref.stats)
	}
	gv, gg := indexed.Occupancy()
	wv, wg := ref.Occupancy()
	if gv != wv || gg != wg {
		t.Fatalf("step %d: occupancy diverged: indexed (%d, %d), reference (%d, %d)", step, gv, gg, wv, wg)
	}
	if indexed.numValid != wv {
		t.Fatalf("step %d: numValid %d inconsistent with occupancy %d", step, indexed.numValid, wv)
	}
}

func TestDifferentialIndexedVsLinear(t *testing.T) {
	dacrs := diffDACRs()
	const opsPerConfig = 12000
	for _, size := range []int{1, 2, 3, 8, 32, 128} {
		for _, hw := range []bool{false, true} {
			// Both large-page granularities: ARMv7's 16-page 64KB pages
			// and Sv39's 512-page 2MB megapages.
			for _, ppl := range []int{armv7.PagesPerLargePage, sv39.PagesPerMegaPage} {
				size, hw, ppl := size, hw, ppl
				name := fmt.Sprintf("size=%d/hw=%v/ppl=%d", size, hw, ppl)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(size)*2 + int64(boolToInt(hw)) + int64(ppl)))
					indexed := New("diff", size, ppl)
					ref := newLinear(size, ppl)
					indexed.DomainMatchInHW = hw
					ref.DomainMatchInHW = hw
					for step := 0; step < opsPerConfig; step++ {
						// Address pool: 48 small pages, aliasing the first
						// three 64KB blocks.
						diffOp(t, rng, indexed, ref, dacrs, uniformDraw(48, 3), rng.Intn(100))
						diffCompareState(t, step, indexed, ref)
					}
				})
			}
		}
	}
}

// TestDifferentialHWToggle flips DomainMatchInHW mid-sequence (as the
// DomainMatchStudy boots different configs, a single TLB never toggles —
// but the MRU register must not carry stale assumptions across a toggle).
func TestDifferentialHWToggle(t *testing.T) {
	dacrs := diffDACRs()
	rng := rand.New(rand.NewSource(99))
	indexed := New("diff", 16, armv7.PagesPerLargePage)
	ref := newLinear(16, armv7.PagesPerLargePage)
	for step := 0; step < 20000; step++ {
		if rng.Intn(200) == 0 {
			hw := rng.Intn(2) == 0
			indexed.DomainMatchInHW = hw
			ref.DomainMatchInHW = hw
		}
		diffOp(t, rng, indexed, ref, dacrs, uniformDraw(48, 3), rng.Intn(100))
		diffCompareState(t, step, indexed, ref)
	}
}

// TestDifferentialLargePageHeavy skews toward large pages and aliased
// small pages so the masked-VPN key and the spill fallback are exercised
// hard.
func TestDifferentialLargePageHeavy(t *testing.T) {
	dacrs := diffDACRs()
	rng := rand.New(rand.NewSource(7))
	indexed := New("diff", 8, armv7.PagesPerLargePage)
	ref := newLinear(8, armv7.PagesPerLargePage)
	for step := 0; step < 15000; step++ {
		// Only two 64KB blocks: constant aliasing between the one large
		// mapping and its sixteen small pages, across three ASIDs and
		// mixed global bits — the worst case for the index.
		va := arch.VirtAddr(rng.Intn(32)) << arch.PageShift
		asid := arch.ASID(1 + rng.Intn(3))
		dacr := dacrs[rng.Intn(len(dacrs))]
		switch r := rng.Intn(10); {
		case r < 5:
			ge, gs, gr := indexed.Lookup(va, asid, dacr, arch.AccessFetch)
			we, ws, wr := ref.Lookup(va, asid, dacr, arch.AccessFetch)
			if ge != we || gs != ws || gr != wr {
				t.Fatalf("Lookup(%#x, asid %d) diverged: indexed (%+v, slot %d, %v), reference (%+v, slot %d, %v)",
					va, asid, ge, gs, gr, we, ws, wr)
			}
		case r < 9:
			flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
			if rng.Intn(2) == 0 {
				flags |= arch.PTELarge
			}
			if rng.Intn(2) == 0 {
				flags |= arch.PTEGlobal
			}
			gs := indexed.Insert(va, asid, arch.FrameNum(step), flags, armv7.DomainUser)
			if ws := ref.Insert(va, asid, arch.FrameNum(step), flags, armv7.DomainUser); gs != ws {
				t.Fatalf("Insert(%#x, asid %d) filled slot %d, reference slot %d", va, asid, gs, ws)
			}
		default:
			if gn, wn := indexed.FlushVA(va), ref.FlushVA(va); gn != wn {
				t.Fatalf("FlushVA(%#x) diverged: indexed %d, reference %d", va, gn, wn)
			}
		}
		diffCompareState(t, step, indexed, ref)
	}
}

// diffPeekCommit is the batch engine's probe-then-commit step: Peek, and
// on a Hit commit a run of n hits at the peeked slot, against n scalar
// reference Lookups that must each hit that slot. On any other outcome
// the scalar Lookup takes over on both sides, and Peek must have
// predicted its result exactly.
func diffPeekCommit(t *testing.T, rng *rand.Rand, indexed *TLB, ref *linearTLB, dacrs []arch.DACR, draw diffDraw) {
	t.Helper()
	va, asid := draw(rng)
	kind := arch.AccessKind(rng.Intn(3))
	dacr := dacrs[rng.Intn(len(dacrs))]
	pe, ps, pr := indexed.Peek(va, asid, dacr, kind)
	if pr == Hit {
		n := uint64(1 + rng.Intn(4))
		indexed.CommitRunHits(ps, n, va, asid, dacr)
		for i := uint64(0); i < n; i++ {
			we, ws, wr := ref.Lookup(va, asid, dacr, kind)
			if wr != Hit || ws != ps || we.frame != pe.frame || we.flags != pe.flags {
				t.Fatalf("Peek(%#x, asid %d) hit slot %d (%+v); reference lookup %d of %d: slot %d, %v (%+v)",
					va, asid, ps, pe, i, n, ws, wr, we)
			}
		}
		return
	}
	ge, gs, gr := indexed.Lookup(va, asid, dacr, kind)
	we, ws, wr := ref.Lookup(va, asid, dacr, kind)
	if ge != we || gs != ws || gr != wr || pe != ge || ps != gs || pr != gr {
		t.Fatalf("Peek/Lookup(%#x, asid %d, dacr %#x, %v) diverged:\n  peek (%+v, slot %d, %v)\n  indexed (%+v, slot %d, %v)\n  reference (%+v, slot %d, %v)",
			va, asid, dacr, kind, pe, ps, pr, ge, gs, gr, we, ws, wr)
	}
}

// maxChain returns the most entries one key holds: buckets may mix
// keys, so each bucket's chain is counted per key.
func maxChain(tb *TLB) int {
	longest := 0
	for _, h := range tb.buckets {
		perKey := map[uint32]int{}
		for s := h - 1; s >= 0; s = tb.keyNext[s] {
			e := &tb.entries[s]
			k := entryKey(e.vpn, e.large)
			perKey[k]++
			longest = max(longest, perKey[k])
		}
	}
	return longest
}

// TestDifferentialBinderShaped drives the traffic of the Binder IPC
// experiment: eight address spaces over a 16-page pool, with a
// context-switch flush about every 25 operations and the batch engine's
// Peek/CommitRunHits in the mix. Each subtest issues one flush kind at
// its switches, as one TLB in one configuration does: the micro-TLBs and
// the no-ASID main TLB flush everything, the shared-TLB kernel's
// no-ASID main TLB keeps global entries, and a switch to a process
// outside the sharing set drops them. Half the draws go to one hot page,
// as both endpoints of a call keep re-entering the same code, so its key
// chain grows to all eight ASIDs.
func TestDifferentialBinderShaped(t *testing.T) {
	dacrs := diffDACRs()
	const (
		pages = 16
		asids = 8
		steps = 12000
	)
	uniform := uniformDraw(pages, asids)
	draw := func(rng *rand.Rand) (arch.VirtAddr, arch.ASID) {
		va, asid := uniform(rng)
		if rng.Intn(2) == 0 {
			va &= arch.PageMask
		}
		return va, asid
	}
	switchFlushes := []struct {
		name string
		op   int
	}{{"all", opFlushAll}, {"nonglobal", opFlushNonGlobal}, {"global", opFlushGlobal}}
	longest := 0
	for _, sw := range switchFlushes {
		for _, size := range []int{32, 128} {
			for _, hw := range []bool{false, true} {
				for _, ppl := range []int{armv7.PagesPerLargePage, sv39.PagesPerMegaPage} {
					name := fmt.Sprintf("switch=%s/size=%d/hw=%v/ppl=%d", sw.name, size, hw, ppl)
					seed := int64(sw.op*1000+size*3+boolToInt(hw)) + int64(ppl)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						indexed := New("diff", size, ppl)
						ref := newLinear(size, ppl)
						indexed.DomainMatchInHW = hw
						ref.DomainMatchInHW = hw
						for step := 0; step < steps; step++ {
							if rng.Intn(25) == 0 {
								diffOp(t, rng, indexed, ref, dacrs, draw, sw.op)
								diffCompareState(t, step, indexed, ref)
								continue
							}
							switch r := rng.Intn(100); {
							case r < 20:
								diffPeekCommit(t, rng, indexed, ref, dacrs, draw)
							case r < 50:
								diffOp(t, rng, indexed, ref, dacrs, draw, opLookup)
							case r < 90:
								diffOp(t, rng, indexed, ref, dacrs, draw, opInsert)
							case r < 93:
								diffOp(t, rng, indexed, ref, dacrs, draw, opFlushVA)
							case r < 96:
								diffOp(t, rng, indexed, ref, dacrs, draw, opFlushASID)
							default:
								diffOp(t, rng, indexed, ref, dacrs, draw, opFlushRange)
							}
							diffCompareState(t, step, indexed, ref)
							longest = max(longest, maxChain(indexed))
						}
					})
				}
			}
		}
	}
	t.Logf("longest key chain: %d slots", longest)
	if longest < asids {
		t.Errorf("longest key chain reached %d slots, want the %d ASIDs sharing a page", longest, asids)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
