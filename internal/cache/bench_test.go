package cache

import (
	"testing"

	"repro/internal/arch"
)

// BenchmarkCacheAccess measures Cache.Access on the L1 geometry across
// the probe outcomes that dominate simulation time.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("HitMRU", func(b *testing.B) {
		c := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
		c.Access(0x1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000)
		}
	})
	b.Run("Hit", func(b *testing.B) {
		c := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
		// Four resident lines in one set, cycled so no hit is on the most
		// recent way.
		setStride := arch.PhysAddr(32 * (32 << 10) / (32 * 4)) // one full set wrap
		for w := 0; w < 4; w++ {
			c.Access(0x1000 + arch.PhysAddr(w)*setStride)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000 + arch.PhysAddr(i&3)*setStride)
		}
	})
	b.Run("MissEvict", func(b *testing.B) {
		c := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
		setStride := arch.PhysAddr(32 * (32 << 10) / (32 * 4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Eight tags cycling through a 4-way set: every access misses
			// and displaces the LRU way.
			c.Access(0x1000 + arch.PhysAddr(i&7)*setStride)
		}
	})
}

// BenchmarkHierarchyWalk measures the page-walk reference path (L1D with
// L2 backing) that every main-TLB miss pays twice.
func BenchmarkHierarchyWalk(b *testing.B) {
	h := DefaultHierarchy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Walk(arch.PhysAddr(0x100000 + (i&255)*32))
	}
}
