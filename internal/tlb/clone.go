package tlb

import (
	"repro/internal/alloc"
	"repro/internal/obs"
)

// Clone returns a deep copy of the TLB for a checkpoint fork, attached
// to the clone machine's event bus. TLB state is small (tens of entries
// per buffer) and mutates on nearly every simulated memory access, so it
// is copied eagerly rather than shared copy-on-write; the copy is a
// handful of allocations bounded by the entry count, never per-entry.
// The header struct comes from a when one is supplied (the per-machine
// clone arena); nil allocates it directly.
func (t *TLB) Clone(bus *obs.Bus, a *alloc.Arena[TLB]) *TLB {
	var c *TLB
	if a != nil {
		c = a.New()
	} else {
		c = new(TLB)
	}
	*c = *t
	c.bus = bus
	c.entries = append([]Entry(nil), t.entries...)
	c.keyNext = append([]int32(nil), t.keyNext...)
	c.validBits = append([]uint64(nil), t.validBits...)
	c.lruPrev = append([]int32(nil), t.lruPrev...)
	c.lruNext = append([]int32(nil), t.lruNext...)
	c.idx = t.idx.clone()
	return c
}
