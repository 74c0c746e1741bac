// Persistent-image support: serializable snapshots (internal/imagestore).
// A cache's state is its set records and its counters; everything else
// is derived from the Config at construction.

package cache

import (
	"fmt"
	"math/bits"
)

// Snapshot is the serializable state of one cache level.
type Snapshot struct {
	Config     Config
	MemLatency int
	Stats      Stats
	Sets       []Set
}

// SnapshotState captures the level's state. The returned Sets slice is
// a copy; the snapshot is independent of the live cache.
func (c *Cache) SnapshotState() Snapshot {
	return Snapshot{
		Config:     c.cfg,
		MemLatency: c.memLatency,
		Stats:      c.stats,
		Sets:       append([]Set(nil), c.sets...),
	}
}

// Restore rebuilds a cache level over the given lower level. The Sets
// slice is adopted without copying — it may point into a memory-mapped
// image, because a restored level is only ever cloned (Clone copies the
// array) or read, never accessed directly. Every record is checked
// first: the probe's early exit and the victim pick rely on the
// invariants Set documents, so a record that breaks them is an error.
func Restore(s Snapshot, next *Cache) (*Cache, error) {
	c := newLevel(s.Config, next, s.MemLatency)
	if n := int(c.setMask) + 1; len(s.Sets) != n {
		return nil, fmt.Errorf("cache %s: snapshot has %d sets, geometry wants %d", s.Config.Name, len(s.Sets), n)
	}
	for i := range s.Sets {
		if err := c.checkSet(uint32(i), &s.Sets[i]); err != nil {
			return nil, fmt.Errorf("cache %s: set %d: %w", s.Config.Name, i, err)
		}
	}
	c.sets = s.Sets
	c.stats = s.Stats
	return c, nil
}

// diagonal has bit [w][w] of an age matrix set for every way w.
const diagonal = uint64(0x8040201008040201)

// checkSet reports whether record s can be set si of this level: no
// valid way past the associativity, valid ways forming a prefix, every
// valid tag indexing set si, no tag held twice, and an age word whose
// rows of empty ways and diagonal are zero and which orders the valid
// ways strictly (so a full set has exactly one LRU way).
func (c *Cache) checkSet(si uint32, s *Set) error {
	n := 0
	for n < MaxAssoc && s.Tags[n] != tagInvalid {
		n++
	}
	for w := n; w < MaxAssoc; w++ {
		if s.Tags[w] != tagInvalid {
			return fmt.Errorf("valid way %d follows empty way %d", w, n)
		}
	}
	if n > c.assoc {
		return fmt.Errorf("%d valid ways, associativity is %d", n, c.assoc)
	}
	for w := 0; w < n; w++ {
		tag := s.Tags[w]
		if tag&c.setMask != si {
			return fmt.Errorf("way %d tag %#x belongs to set %d", w, tag, tag&c.setMask)
		}
		for v := 0; v < w; v++ {
			if s.Tags[v] == tag {
				return fmt.Errorf("tag %#x held by ways %d and %d", tag, v, w)
			}
		}
	}
	if n < MaxAssoc && s.Age>>(8*n) != 0 {
		return fmt.Errorf("age word %#x has a nonzero row for an empty way", s.Age)
	}
	if s.Age&diagonal != 0 {
		return fmt.Errorf("age word %#x has a nonzero diagonal", s.Age)
	}
	// Among the valid ways the matrix must be a strict total order: no
	// pair more recent than each other, and row popcounts 0..n-1 (a
	// tournament is transitive exactly when its scores are distinct).
	m := s.Age & ((uint64(1)<<n - 1) * colOnes)
	if m&transpose8(m) != 0 {
		return fmt.Errorf("age word %#x orders a pair both ways", s.Age)
	}
	var scores uint
	for w := 0; w < n; w++ {
		scores |= 1 << bits.OnesCount8(uint8(m>>(8*w)))
	}
	if scores != 1<<n-1 {
		return fmt.Errorf("age word %#x does not order the %d valid ways", s.Age, n)
	}
	return nil
}

// transpose8 transposes an 8x8 bit matrix stored one row per byte (bit j
// of byte i is element [i][j]) with three delta swaps.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}
