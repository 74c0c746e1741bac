// Clone must copy every entry and stay allocation-bounded: a handful of
// slice copies sized by the TLB's capacity, never one allocation per
// entry.

package tlb

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
)

func TestCloneCopiesStateAndDetaches(t *testing.T) {
	a := New("main", 64, armv7.PagesPerLargePage)
	for i := 0; i < 40; i++ {
		a.Insert(arch.VirtAddr(i*arch.PageSize), 1, arch.FrameNum(i), arch.PTEValid, 1)
	}
	b := a.Clone(nil, nil)
	av, ag := a.Occupancy()
	bv, bg := b.Occupancy()
	if av != bv || ag != bg {
		t.Fatalf("clone occupancy %d/%d, want %d/%d", bv, bg, av, ag)
	}
	// Mutating the clone must not touch the original.
	b.FlushAll()
	if v, _ := a.Occupancy(); v != av {
		t.Errorf("flushing the clone changed the original: %d -> %d valid", av, v)
	}
	if v, _ := b.Occupancy(); v != 0 {
		t.Errorf("clone not flushed: %d valid", v)
	}
}

func TestCloneAllocationBounded(t *testing.T) {
	a := New("main", 64, armv7.PagesPerLargePage)
	for i := 0; i < 64; i++ {
		a.Insert(arch.VirtAddr(i*arch.PageSize), 1, arch.FrameNum(i), arch.PTEValid, 1)
	}
	var sink *TLB
	allocs := testing.AllocsPerRun(100, func() {
		sink = a.Clone(nil, nil)
	})
	_ = sink
	if max := 10.0; allocs > max {
		t.Errorf("Clone() = %.0f allocs for a full 64-entry TLB, want <= %.0f", allocs, max)
	}
}

// TestCloneDetachesKeyChains mutates a clone's key chains and then walks
// the original's: the two must share no index state.
func TestCloneDetachesKeyChains(t *testing.T) {
	a := New("main", 16, armv7.PagesPerLargePage)
	for i := 0; i < 8; i++ {
		a.Insert(arch.VirtAddr(i*arch.PageSize), 1, arch.FrameNum(i), arch.PTEValid, 1)
	}
	b := a.Clone(nil, nil)
	for i := 0; i < 8; i++ {
		b.FlushVA(arch.VirtAddr(i * arch.PageSize))
	}
	for i := 0; i < 16; i++ {
		b.Insert(arch.VirtAddr(i%2*arch.PageSize), arch.ASID(2+i), arch.FrameNum(i), arch.PTEValid, 1)
	}
	for i := 0; i < 8; i++ {
		if n := a.FlushVA(arch.VirtAddr(i * arch.PageSize)); n != 1 {
			t.Fatalf("original FlushVA(page %d) removed %d entries after the clone was mutated, want 1", i, n)
		}
	}
	if n := b.FlushVA(0); n != 8 {
		t.Errorf("clone FlushVA(0) removed %d entries, want the 8 ASIDs holding page 0", n)
	}
}
