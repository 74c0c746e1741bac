// Package cache models the processor cache hierarchy of the evaluation
// platform: per-core 32KB L1 instruction and data caches backed by a
// shared 1MB L2, all physically tagged.
//
// The hierarchy matters to shared address translation because hardware
// page-table walks triggered by TLB misses load page-table entries through
// the caches (into the L2, and on ARMv7 also the L1 data cache). With a
// private page table per process, multiple copies of a PTE mapping the
// same physical page occupy distinct cache lines, displacing other data;
// with shared page-table pages all processes walk the same physical PTE
// words and the duplicates disappear. The simulator exposes physical
// addresses for PTE words precisely so this effect is reproduced.
//
// Each level stores one 40-byte Set record per set — the way tags and
// the set's age-matrix LRU word — so a probe reads one record (one or
// two host cache lines) and is one scan that stops at the first empty
// way.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/obs"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the cache in diagnostics ("L1I", "L1D", "L2").
	Name string
	// Size is the capacity in bytes.
	Size int
	// LineSize is the line size in bytes (a power of two).
	LineSize int
	// Assoc is the set associativity.
	Assoc int
	// HitLatency is the access latency in cycles when the line is
	// present at this level.
	HitLatency int
}

// Stats counts cache events at one level.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// tagInvalid marks an empty way. Real tags are physical addresses
// shifted right by at least the line-size bits, so they never reach it.
const tagInvalid = ^uint32(0)

// colOnes has bit 0 of every byte set: shifted left by w it selects
// column w of an age matrix, and it is the per-byte borrow seed for the
// zero-byte search in the victim pick.
const colOnes = uint64(0x0101010101010101)

// MaxAssoc is the most ways one set record holds: one age-matrix word
// is an 8x8 bit matrix.
const MaxAssoc = 8

// Set is one cache set: the tags of its ways and its age matrix in 40
// contiguous bytes, so a probe reads one record rather than several
// parallel arrays. Ways past the level's associativity stay empty.
//
// Valid ways always form a prefix of Tags: a fill takes the first empty
// way, and only FlushAll invalidates. A probe therefore stops at the
// first empty way, which is also the victim when the set is not full.
//
// Age is the hardware age-matrix LRU scheme: bit j of byte i means "way
// i used more recently than way j". Recording a use is two masked bit-ops
// on one word (set row w, clear column w) with no search, no clock and
// no stamp array; the LRU way of a full set is the unique way whose row
// is all zero, found branch-free with the zero-byte trick. The matrix
// induces exactly the order unique last-use timestamps would, so victim
// choice is identical to the stamped reference implementation (the
// differential test pins this). Rows of empty ways and the diagonal stay
// zero.
//
// Stored images cast the set array in place over the mapped file, so the
// layout is part of the image format (imagestore.layoutHash).
type Set struct {
	Tags [MaxAssoc]uint32
	Age  uint64
}

// emptySet is a set with every way invalid.
var emptySet = Set{Tags: [MaxAssoc]uint32{
	tagInvalid, tagInvalid, tagInvalid, tagInvalid,
	tagInvalid, tagInvalid, tagInvalid, tagInvalid,
}}

// touch returns age with a use of way w recorded: way w becomes more
// recent than every other way (set row w), and no way remains more
// recent than w (clear column w). Setting the row also sets bit [w][w];
// clearing the column clears it again, keeping the diagonal zero.
func touch(age uint64, w uint) uint64 {
	w &= 7 // proves both shifts < 64, so no oversized-shift guards
	return (age | 0xFF<<(8*w)) &^ (colOnes << w)
}

// Cache is one level of a physically indexed, physically tagged cache
// with LRU replacement within each set.
type Cache struct {
	cfg   Config
	sets  []Set
	assoc int
	// dirty is the fused-run memo bitmap: while runN != 0, a clear bit si
	// asserts that set si is at the fixed point of the run described by
	// (runTag0, runN): re-running its lines would mutate nothing (see
	// accessRunFused). Every mutation of a set (a fill, or a hit that
	// changes the age word) sets the bit; the fused engine re-verifies
	// dirty sets and clears the bits that check out. Transparent
	// acceleration state: it is not serialized.
	dirty   []uint64
	runTag0 uint32
	runN    uint32
	// colsAll masks the valid columns (low assoc bits) of every byte of
	// an age word, so the victim search compares ways only against the
	// ways that exist.
	colsAll uint64
	// hitLat duplicates cfg.HitLatency as a flat field so the hit path
	// never loads through the wide Config struct.
	hitLat     int
	setShift   uint
	setMask    uint32
	next       *Cache
	memLatency int
	stats      Stats
	bus        *obs.Bus
}

// Compile-time check: every Cache is an obs.Source.
var _ obs.Source = (*Cache)(nil)

// New creates a cache level. next is the lower level; when next is nil a
// miss at this level costs memLatency additional cycles (main memory).
func New(cfg Config, next *Cache, memLatency int) *Cache {
	c := newLevel(cfg, next, memLatency)
	c.sets = make([]Set, c.setMask+1)
	for i := range c.sets {
		c.sets[i] = emptySet
	}
	return c
}

// newLevel validates cfg and builds a level without its set array, which
// New fills empty and Restore adopts from a snapshot.
func newLevel(cfg Config, next *Cache, memLatency int) *Cache {
	if cfg.Size <= 0 || cfg.LineSize <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache %s: invalid config %+v", cfg.Name, cfg))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	nSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a positive power of two", cfg.Name, nSets))
	}
	if cfg.Assoc > MaxAssoc {
		panic(fmt.Sprintf("cache %s: associativity %d exceeds the %d ways one set record holds", cfg.Name, cfg.Assoc, MaxAssoc))
	}
	return &Cache{
		cfg:        cfg,
		assoc:      cfg.Assoc,
		dirty:      make([]uint64, (nSets+63)/64),
		colsAll:    (uint64(1)<<uint(cfg.Assoc) - 1) * colOnes,
		hitLat:     cfg.HitLatency,
		setShift:   uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint32(nSets - 1),
		next:       next,
		memLatency: memLatency,
	}
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats returns a snapshot of this level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without invalidating any lines.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// AttachBus makes the cache publish fill/evict events to b. A nil bus
// detaches. The bus applies to this level only; attach each level of a
// hierarchy separately (or use Hierarchy.AttachBus).
func (c *Cache) AttachBus(b *obs.Bus) { c.bus = b }

// Snapshot implements obs.Source.
func (c *Cache) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"accesses":  c.stats.Accesses,
		"hits":      c.stats.Hits,
		"misses":    c.stats.Misses,
		"evictions": c.stats.Evictions,
	}
}

// Reset implements obs.Source.
func (c *Cache) Reset() { c.ResetStats() }

// Access references the line containing pa, filling it on a miss, and
// returns the total latency in cycles including any lower-level accesses.
func (c *Cache) Access(pa arch.PhysAddr) int {
	c.stats.Accesses++
	return c.lookup(pa, uint32(pa)>>c.setShift)
}

// lookup scans the set of tag once, stopping at the tag or at the first
// empty way: a hit records the use, anything else falls through to fill
// with the way the scan stopped at. Callers have already counted the
// access.
func (c *Cache) lookup(pa arch.PhysAddr, tag uint32) int {
	si := tag & c.setMask
	s := &c.sets[si]
	w := 0
	for ; w < MaxAssoc; w++ {
		tg := s.Tags[w]
		if tg == tag {
			c.stats.Hits++
			// Store the age word, and invalidate the fused-run memo for
			// this set, only when the use changes recency: re-using the
			// set's most recent way mutates nothing. While runN == 0 no
			// memo exists to protect (the first AccessRun rebuilds the
			// bitmap all-dirty).
			if a := touch(s.Age, uint(w)); a != s.Age {
				s.Age = a
				if c.runN != 0 {
					c.dirty[si>>6] |= 1 << (si & 63)
				}
			}
			return c.hitLat
		}
		if tg == tagInvalid {
			break
		}
	}
	return c.fill(pa, tag, si, s, w)
}

// fill handles a miss in set si, whose probe stopped at way w: pick the
// victim, fetch the line from the next level, and install it.
func (c *Cache) fill(pa arch.PhysAddr, tag, si uint32, s *Set, w int) int {
	// A probe that stopped inside the level's ways stopped at the first
	// empty way, which is the victim. Otherwise the set is full, and the
	// LRU way is the unique valid way whose age-matrix row is all zero:
	// the zero-byte trick marks the high bit of the lowest zero byte of
	// y, and the all-zero rows of ways past assoc sit in higher bytes, so
	// TrailingZeros lands on the real victim.
	victim := w
	if w >= c.assoc {
		y := s.Age & c.colsAll
		victim = bits.TrailingZeros64((y-colOnes)&^y&0x8080808080808080) >> 3
	}
	c.stats.Misses++
	latency := c.hitLat
	if c.next != nil {
		latency += c.next.Access(pa)
	} else {
		latency += c.memLatency
	}
	victim &= MaxAssoc - 1 // already < assoc; proves the index in range
	if s.Tags[victim] != tagInvalid {
		c.stats.Evictions++
		if c.bus.Wants(obs.EvCacheEvict) {
			c.bus.Publish(obs.Event{Kind: obs.EvCacheEvict, Source: c.cfg.Name, Addr: uint64(pa)})
		}
	}
	s.Tags[victim] = tag
	s.Age = touch(s.Age, uint(victim))
	if c.runN != 0 { // see lookup
		c.dirty[si>>6] |= 1 << (si & 63)
	}
	if c.bus.Wants(obs.EvCacheFill) {
		c.bus.Publish(obs.Event{Kind: obs.EvCacheFill, Source: c.cfg.Name, Addr: uint64(pa)})
	}
	return latency
}

// way returns the way of set s holding tag, or -1.
func (s *Set) way(tag uint32) int {
	for w := 0; w < MaxAssoc; w++ {
		switch s.Tags[w] {
		case tag:
			return w
		case tagInvalid:
			return -1
		}
	}
	return -1
}

// AccessRun references n consecutive lines starting with the one holding
// pa — exactly equivalent to n Access calls at pa, pa+LineSize,
// pa+2*LineSize, ... — and returns the accumulated stall cycles beyond
// one pipelined cycle per access, Σ max(latency-1, 0). It exists for the
// simulator's sequential-fetch loops (straight-line blocks, kernel fault
// paths), where it keeps the per-line work inside one frame instead of
// re-entering Access per line.
//
// Long wrapping runs go through accessRunFused, which proves whole sets
// are already in their post-run state and skips them without a single
// store (see its comment); the in-order loop handles short runs and
// remains the reference — and the fallback — whenever the fused engine's
// set-by-set order could be observed (accessRunReorderSafe).
func (c *Cache) AccessRun(pa arch.PhysAddr, n int) int {
	if n <= 0 {
		return 0
	}
	// The fused engine's per-set fast path needs sets to see two lines of
	// the run — it only pays off when the run wraps the set index space.
	// Short runs — the overwhelmingly common straight-line block of a few
	// lines — run the plain loop.
	if n > int(c.setMask)+1 && c.accessRunReorderSafe(n) {
		return c.accessRunFused(pa, n)
	}
	return c.accessRunScalar(pa, n)
}

// accessRunScalar is the in-order reference loop: one probe per line,
// counters on the shared struct, events in stream order.
func (c *Cache) accessRunScalar(pa arch.PhysAddr, n int) int {
	tag := uint32(pa) >> c.setShift
	lineSize := arch.PhysAddr(1) << c.setShift
	stall := 0
	for i := 0; i < n; i++ {
		c.stats.Accesses++
		if lat := c.lookup(pa, tag); lat > 1 {
			stall += lat - 1
		}
		tag++
		pa += lineSize
	}
	return stall
}

// accessRunReorderSafe reports whether a run of n consecutive lines may
// be processed set-by-set instead of in stream order. Within one set the
// fused loop preserves stream order, so the only reordering is across
// sets, and that is unobservable exactly when (a) no subscriber wants
// fill or evict events at this or the next level (event order is the one
// externally visible sequence), and (b) the n lines land in n distinct
// sets of the next level, so no cross-set pair ever meets in a
// lower-level set (consecutive lines guarantee this while n does not
// exceed the next level's set count and line sizes match). Misses past
// the next level are a flat memory latency with no state at all.
func (c *Cache) accessRunReorderSafe(n int) bool {
	if c.bus.Wants(obs.EvCacheFill) || c.bus.Wants(obs.EvCacheEvict) {
		return false
	}
	nx := c.next
	if nx == nil {
		return true
	}
	if nx.setShift != c.setShift || nx.next != nil || n > int(nx.setMask)+1 {
		return false
	}
	return !nx.bus.Wants(obs.EvCacheFill) && !nx.bus.Wants(obs.EvCacheEvict)
}

// accessRunFused executes a wrapping run set-by-set with a zero-store
// fast path for sets that are already in their post-run state.
//
// The engine exploits a fixed-point property of the run's effect on one
// set. A set receiving lines A then B (k = 2) that both hit ends with its
// age word equal to touch(touch(age, wayA), wayB). The touch sequence is
// idempotent — a second application passes the untouched rows through
// unchanged and rewrites rows/columns A and B to the same values — so if
// both lines are resident and the set's age word is ALREADY that end
// state, re-running its lines changes nothing, and the set's whole
// contribution reduces to counters: k accesses, k hits, k*(hitLat-1)
// stall cycles. A set receiving one line (k = 1) is at its fixed point
// when the line is resident in the set's most recent way. A set
// receiving three or more lines is never treated as clean: its bit stays
// set and it runs the per-line path every time.
//
// The dominant caller replays one identical run hundreds of thousands of
// times, and even the fixed-point check is too much work to repeat per
// set per run. The dirty bitmap amortizes it: after a full pass has
// verified (or repaired, via the per-line path) every set, a clear bit
// si vouches that set si is still at the run's fixed point, because
// every mutation of a set — a fill, or a hit that changes the age word,
// whether from scalar accesses or other runs — sets the bit. A repeat of
// the memoized run therefore touches only the sets dirtied since the
// last one, skipping clean sets 64 at a time at the bitmap word level,
// and re-verifies each dirty set after repairing it, clearing bits that
// check out. Changing the run shape (a different tag0 or n) discards the
// memo and forces a full verification pass, since a fixed point of one
// run says nothing about another.
func (c *Cache) accessRunFused(pa arch.PhysAddr, n int) int {
	tag0 := uint32(pa) >> c.setShift
	un := uint32(n)
	nSets := uint32(c.setMask) + 1
	if c.runTag0 != tag0 || c.runN != un {
		// New run shape: every set must be verified once before the
		// bitmap can vouch for it. Mark only real sets — for a cache
		// smaller than one bitmap word, stray high bits would alias
		// valid sets through the index mask.
		c.runTag0, c.runN = tag0, un
		for i := range c.dirty {
			c.dirty[i] = ^uint64(0)
		}
		if nSets < 64 {
			c.dirty[0] = 1<<nSets - 1
		}
	}
	lineSize := arch.PhysAddr(1) << c.setShift
	// Lines per set: sets at run offset j < rem see full+1 lines. The
	// AccessRun gate guarantees n > nSets, so every set sees at least one.
	full := un / nSets
	rem := un % nSets
	hitLat := c.hitLat
	stall := 0
	var dirtyLines uint64
	setStride := arch.PhysAddr(nSets) * lineSize
	for w := range c.dirty {
		word := c.dirty[w]
		for word != 0 {
			b := uint32(bits.TrailingZeros64(word))
			word &^= 1 << b
			si := uint32(w)<<6 + b
			j := (si - tag0) & c.setMask
			k := full
			if j < rem {
				k++
			}
			dirtyLines += uint64(k)
			tagA := tag0 + j
			lpa := pa + arch.PhysAddr(j)*lineSize
			for tag := tagA; tag-tag0 < un; tag += nSets {
				c.stats.Accesses++
				if lat := c.lookup(lpa, tag); lat > 1 {
					stall += lat - 1
				}
				lpa += setStride
			}
			// Re-verify: is the set now at this run's fixed point? The
			// per-line path above may have re-marked it dirty; clear the
			// bit when the end state checks out so the next identical run
			// skips it.
			s := &c.sets[si]
			clean := false
			switch k {
			case 1:
				if wA := s.way(tagA); wA >= 0 {
					clean = touch(s.Age, uint(wA)) == s.Age
				}
			case 2:
				if wA, wB := s.way(tagA), s.way(tagA+nSets); wA >= 0 && wB >= 0 {
					clean = touch(touch(s.Age, uint(wA)), uint(wB)) == s.Age
				}
			}
			if clean {
				c.dirty[w] &^= 1 << b
			}
		}
	}
	// Clean sets contribute only counters: every line hits.
	cleanLines := uint64(n) - dirtyLines
	c.stats.Accesses += cleanLines
	c.stats.Hits += cleanLines
	if hitLat > 1 {
		stall += int(cleanLines) * (hitLat - 1)
	}
	return stall
}

// Contains reports whether the line holding pa is resident at this level,
// without touching LRU state or counters.
func (c *Cache) Contains(pa arch.PhysAddr) bool {
	tag := uint32(pa) >> c.setShift
	return c.sets[tag&c.setMask].way(tag) >= 0
}

// FlushAll invalidates every line at this level only.
func (c *Cache) FlushAll() {
	for i := range c.sets {
		c.sets[i] = emptySet
	}
	c.runN = 0 // every fused-run fixed point is gone with the lines
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		for _, tg := range c.sets[i].Tags {
			if tg != tagInvalid {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of this level for a checkpoint fork, wired
// to the given lower level and event bus. The set array is one flat
// copy; nothing is allocated per line or per set. The header struct
// comes from a when one is supplied (the per-machine clone arena); nil
// allocates it directly.
func (c *Cache) Clone(next *Cache, bus *obs.Bus, a *alloc.Arena[Cache]) *Cache {
	var d *Cache
	if a != nil {
		d = a.New()
	} else {
		d = new(Cache)
	}
	*d = *c
	d.sets = append([]Set(nil), c.sets...)
	d.dirty = append([]uint64(nil), c.dirty...)
	d.next = next
	d.bus = bus
	return d
}

// Hierarchy bundles the three-level cache system of one simulated core
// complex: private L1I/L1D in front of a shared L2.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// DefaultHierarchy builds the Nexus 7 (Tegra 3 / Cortex-A9) cache system:
// 32KB 4-way L1I and L1D with 32-byte lines, and a 1MB 8-way shared L2.
func DefaultHierarchy() *Hierarchy {
	return HierarchyWithL2(DefaultL2())
}

// DefaultL2 builds the shared 1MB 8-way L2.
func DefaultL2() *Cache {
	return New(Config{Name: "L2", Size: 1 << 20, LineSize: 32, Assoc: 8, HitLatency: 10}, nil, 50)
}

// HierarchyWithL2 builds one core's private L1I/L1D in front of an
// existing L2 — the Tegra 3 arrangement, where all four cores share the
// 1MB L2. Several hierarchies built over the same L2 model an SMP.
func HierarchyWithL2(l2 *Cache) *Hierarchy {
	l1i := New(Config{Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	l1d := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2}
}

// CloneWithL2 clones one core's private L1 levels over an already-cloned
// shared L2, for checkpoint forks of SMP machines: clone the L2 once,
// then each core's hierarchy over it.
func (h *Hierarchy) CloneWithL2(l2 *Cache, bus *obs.Bus, a *alloc.Arena[Cache]) *Hierarchy {
	return &Hierarchy{L1I: h.L1I.Clone(l2, bus, a), L1D: h.L1D.Clone(l2, bus, a), L2: l2}
}

// Fetch accesses pa through the instruction side and returns the latency.
func (h *Hierarchy) Fetch(pa arch.PhysAddr) int { return h.L1I.Access(pa) }

// FetchRun accesses n consecutive lines through the instruction side —
// equivalent to n Fetch calls one line apart — and returns the
// accumulated stall cycles beyond one pipelined cycle per line.
func (h *Hierarchy) FetchRun(pa arch.PhysAddr, n int) int { return h.L1I.AccessRun(pa, n) }

// Data accesses pa through the data side and returns the latency.
func (h *Hierarchy) Data(pa arch.PhysAddr) int { return h.L1D.Access(pa) }

// Walk models one page-table-walk memory reference: the hardware walker
// loads the PTE word through the L2 cache and, as on ARMv7 Cortex-A9,
// allocates it into the L1 data cache as well.
func (h *Hierarchy) Walk(pa arch.PhysAddr) int { return h.L1D.Access(pa) }

// FlushAll empties all three levels.
func (h *Hierarchy) FlushAll() {
	h.L1I.FlushAll()
	h.L1D.FlushAll()
	h.L2.FlushAll()
}

// ResetStats zeroes all three levels' counters.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
}

// AttachBus attaches all three levels to b.
func (h *Hierarchy) AttachBus(b *obs.Bus) {
	h.L1I.AttachBus(b)
	h.L1D.AttachBus(b)
	h.L2.AttachBus(b)
}
