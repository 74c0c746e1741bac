// Package tlb models the translation lookaside buffers of a Cortex-A9
// class ARMv7 core: small micro-TLBs that are flushed on every context
// switch, backed by a unified main TLB whose entries carry an address
// space identifier (ASID), a global bit, and a domain field.
//
// The global bit asserts that a mapping is identical in all virtual
// address spaces: a global entry matches regardless of the current ASID.
// On every access the MMU checks the matching entry's domain field against
// the domain access control register (DACR); with no access the MMU raises
// a domain fault, with client access the entry's permission bits are
// checked, and with manager access permissions are overridden. The
// shared-TLB design of the paper places zygote-preloaded shared code in a
// dedicated zygote domain so that global entries loaded by zygote-like
// processes cannot be used by non-zygote processes.
//
// # Hot path
//
// Lookup and Insert are the innermost loop of the whole simulator: every
// simulated instruction probes a micro-TLB and, on a miss, the main TLB.
// Instead of scanning all entries per probe (the fully associative
// hardware does that in parallel; software cannot), the TLB indexes the
// slots by the only keys that can match a virtual page number:
//
//   - key(vpn, large) hashes to a bucket, and each bucket chains its
//     slots in ascending slot order (idx.go). A probe walks at most two
//     buckets — the page's 4KB key's and, while large entries are
//     resident, its block's large key's — merged by slot number, which is
//     the reference scan order restricted to a superset of the entries
//     that can match; Entry.match filters the rest. A page held by many
//     ASIDs costs a chain step per holder, never a scan of the whole TLB.
//   - a one-entry MRU register short-circuits repeated probes of the same
//     page under the same ASID and DACR, the common case for straight-line
//     code. Any mutation of the entry array invalidates it.
//   - a free-slot bitmap and a doubly-linked LRU list (exact, since
//     lastUse values are unique) make Insert's victim choice O(1).
//
// FlushAll, run on every context switch, resets only state that is read
// again: the entries, the bucket heads, the bitmap (its phantom bits from
// a mask computed in New) and the list ends, and an empty TLB skips even
// that. Chain and LRU links of invalid slots are stale but never read:
// inserting a slot rewrites them.
//
// The indexed paths are behaviourally identical to the reference linear
// implementation (linearTLB in reference_test.go) — same results, same
// entry states, same counters — which the differential property tests in
// differential_test.go enforce over randomized operation sequences.
package tlb

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/obs"
)

// Entry is one TLB entry. For a large-page entry, vpn holds the
// effective (large-page-masked) page number, precomputed at insert time
// so match never recomputes the mask on the entry side.
type Entry struct {
	valid   bool
	vpn     uint32
	asid    arch.ASID
	global  bool
	large   bool
	domain  uint8
	frame   arch.FrameNum
	flags   arch.PTEFlags
	lastUse uint64
}

// Frame returns the physical frame the entry translates to.
func (e Entry) Frame() arch.FrameNum { return e.frame }

// Global reports whether the entry's global bit is set.
func (e Entry) Global() bool { return e.global }

// Domain returns the entry's domain field.
func (e Entry) Domain() uint8 { return e.domain }

// Flags returns the entry's permission and attribute bits.
func (e Entry) Flags() arch.PTEFlags { return e.flags }

// Large reports whether the entry maps a large page.
func (e Entry) Large() bool { return e.large }

// Result is the outcome of a TLB lookup.
type Result uint8

const (
	// Miss: no entry matches; a page table walk is required.
	Miss Result = iota
	// Hit: a matching entry passed the domain and permission checks.
	Hit
	// DomainFault: a matching entry's domain is denied by the DACR.
	// The faulting address is reported via FSR/FAR to the exception
	// handler (a prefetch abort for fetches, a data abort otherwise).
	DomainFault
	// PermFault: a matching entry in a client-access domain failed the
	// PTE permission check.
	PermFault
)

// String names the lookup result.
func (r Result) String() string {
	switch r {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case DomainFault:
		return "domain fault"
	case PermFault:
		return "permission fault"
	default:
		return "unknown"
	}
}

// Stats counts TLB events.
type Stats struct {
	Hits           uint64
	Misses         uint64
	DomainFaults   uint64
	PermFaults     uint64
	Insertions     uint64
	Evictions      uint64
	Flushes        uint64
	FlushedEntries uint64
}

// mruReg is the one-entry most-recently-used register: the slot of the
// last Hit, valid only for a probe with the identical (vpn, asid, dacr)
// and DomainMatchInHW setting, and only while the entry array is
// unmutated (every Insert and flush clears ok). Under those conditions
// the probe is guaranteed to resolve at the same slot, because the scan
// prefix that was skipped could only contain entries that do not match or
// are domain-denied under the same DACR.
type mruReg struct {
	ok   bool
	hw   bool
	slot int32
	vpn  uint32
	asid arch.ASID
	dacr arch.DACR
}

// TLB is one translation buffer, fully associative with LRU replacement.
type TLB struct {
	// DomainMatchInHW models the hardware support the paper asks future
	// processors for (Sections 3.2.3 and 6): when set, an entry whose
	// domain the current DACR denies simply does not match — the lookup
	// misses and the walker loads the process's own translation —
	// instead of raising a domain-fault exception that software must
	// handle by flushing the matching entries.
	DomainMatchInHW bool

	name    string
	entries []Entry
	clock   uint64
	stats   Stats
	bus     *obs.Bus

	// largeMask masks a VPN down to its large-page base: pagesPerLarge-1
	// for the owning architecture (15 on ARMv7's 64KB pages, 511 on
	// Sv39's 2MB megapages).
	largeMask uint32

	// Indexed fast path; see the package comment. buckets holds each
	// bucket's lowest slot plus one (0: empty bucket), and keyNext links
	// the valid slots of one bucket in ascending order (-1 ends a chain).
	// validBits marks valid slots; the bits of its last word past
	// len(entries) (phantom) are permanently set so the first-free scan
	// never reports them. lruPrev/lruNext thread the valid slots in
	// recency order: lruHead is the least and lruTail the most recently
	// used.
	buckets   []int32
	keyNext   []int32
	validBits []uint64
	phantom   uint64
	numValid  int
	// numLarge counts the valid 64KB entries. Most workload phases hold
	// none, so lookups skip the second (large-key) index probe entirely
	// when it is zero.
	numLarge int
	lruPrev  []int32
	lruNext  []int32
	lruHead  int32
	lruTail  int32
	mru      mruReg
}

// Compile-time check: every TLB is an obs.Source.
var _ obs.Source = (*TLB)(nil)

// New creates a TLB with the given number of entries. pagesPerLarge is
// the number of 4KB pages per large-page mapping on the owning
// architecture (arch.Geometry.PagesPerLarge), which determines how
// large-page entries mask the VPN on match.
func New(name string, entries, pagesPerLarge int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("tlb: non-positive size %d", entries))
	}
	if pagesPerLarge <= 0 {
		panic(fmt.Sprintf("tlb: non-positive pagesPerLarge %d", pagesPerLarge))
	}
	t := &TLB{
		name:      name,
		largeMask: uint32(pagesPerLarge - 1),
		entries:   make([]Entry, entries),
		buckets:   newBuckets(entries),
		keyNext:   make([]int32, entries),
		validBits: make([]uint64, (entries+63)/64),
		lruPrev:   make([]int32, entries),
		lruNext:   make([]int32, entries),
		lruHead:   -1,
		lruTail:   -1,
	}
	if r := entries & 63; r != 0 {
		t.phantom = ^uint64(0) << r
	}
	t.validBits[len(t.validBits)-1] = t.phantom
	return t
}

// Name returns the TLB's name (for diagnostics).
func (t *TLB) Name() string { return t.name }

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters without touching the entries.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// AttachBus makes the TLB publish insert/evict/flush events to b. A nil
// bus detaches.
func (t *TLB) AttachBus(b *obs.Bus) { t.bus = b }

// Snapshot implements obs.Source.
func (t *TLB) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"hits":            t.stats.Hits,
		"misses":          t.stats.Misses,
		"domain_faults":   t.stats.DomainFaults,
		"perm_faults":     t.stats.PermFaults,
		"insertions":      t.stats.Insertions,
		"evictions":       t.stats.Evictions,
		"flushes":         t.stats.Flushes,
		"flushed_entries": t.stats.FlushedEntries,
	}
}

// Reset implements obs.Source.
func (t *TLB) Reset() { t.ResetStats() }

// flushed records one flush operation that invalidated n entries.
func (t *TLB) flushed(n int) {
	t.stats.Flushes++
	t.stats.FlushedEntries += uint64(n)
	if t.bus.Wants(obs.EvTLBFlush) {
		t.bus.Publish(obs.Event{Kind: obs.EvTLBFlush, Source: t.name, Value: uint64(n)})
	}
}

// entryKey packs an entry's index key: the stored (pre-masked) VPN and
// the large-page bit, so 4KB and 64KB entries never share a key.
func entryKey(vpn uint32, large bool) uint32 {
	k := vpn << 1
	if large {
		k |= 1
	}
	return k
}

// match reports whether entry e translates va under asid. A global entry
// ignores the ASID, per the architectural meaning of the global bit; a
// large-page entry matches on the large-page-aligned page number. Only
// the query VPN needs masking: e.vpn is pre-masked at insert time.
// largeMask is the owning TLB's large-page VPN mask.
func (e *Entry) match(vpn uint32, asid arch.ASID, largeMask uint32) bool {
	if !e.valid {
		return false
	}
	if e.large {
		vpn &^= largeMask
	}
	return e.vpn == vpn && (e.global || e.asid == asid)
}

// permit checks the entry's permission bits against the access kind.
func (e *Entry) permit(kind arch.AccessKind) bool {
	if e.flags&arch.PTEUser == 0 {
		return false
	}
	switch kind {
	case arch.AccessFetch:
		return e.flags&arch.PTEExec != 0
	case arch.AccessWrite:
		return e.flags&arch.PTEWrite != 0
	default:
		return true
	}
}

// --- index, bitmap, and LRU-list maintenance --------------------------------

// idxAdd links the (valid) entry at slot into its bucket chain, keeping
// the chain in ascending slot order.
func (t *TLB) idxAdd(slot int32) {
	e := &t.entries[slot]
	if e.large {
		t.numLarge++
	}
	b := t.bucket(entryKey(e.vpn, e.large))
	p := t.buckets[b] - 1
	if p < 0 || slot < p {
		t.buckets[b] = slot + 1
		t.keyNext[slot] = p
		return
	}
	for n := t.keyNext[p]; n >= 0 && n < slot; n = t.keyNext[p] {
		p = n
	}
	t.keyNext[slot] = t.keyNext[p]
	t.keyNext[p] = slot
}

// idxRemove unlinks the (still valid) entry at slot from its bucket chain.
func (t *TLB) idxRemove(slot int32) {
	e := &t.entries[slot]
	if e.large {
		t.numLarge--
	}
	b := t.bucket(entryKey(e.vpn, e.large))
	if p := t.buckets[b] - 1; p != slot {
		for t.keyNext[p] != slot {
			p = t.keyNext[p]
		}
		t.keyNext[p] = t.keyNext[slot]
		return
	}
	t.buckets[b] = t.keyNext[slot] + 1
}

// heads returns the heads of the two bucket chains that can hold an
// entry matching vpn: the bucket of the page's 4KB key and, while any
// large entry is resident, the bucket of its block's large key. -1 marks
// an empty chain. The large chain is -1 when both keys share a bucket,
// so no slot is visited twice; the two heads are then equal only when
// both are -1, since distinct buckets never share a slot.
func (t *TLB) heads(vpn uint32) (small, large int32) {
	if t.numValid == 0 {
		return -1, -1 // freshly flushed: no hash probe needed
	}
	bs := t.bucket(entryKey(vpn, false))
	small, large = t.buckets[bs]-1, -1
	if t.numLarge != 0 {
		if bl := t.bucket(entryKey(vpn&^t.largeMask, true)); bl != bs {
			large = t.buckets[bl] - 1
		}
	}
	return small, large
}

// pop merges two ascending bucket chains: it returns the lower of the heads
// a and b (-1 sorts last as a uint32) with both chains advanced past it.
// Walking `for a != b { s, a, b = t.pop(a, b) }` visits every slot of
// both chains in ascending slot order: the reference scan order.
func (t *TLB) pop(a, b int32) (s, na, nb int32) {
	if uint32(a) < uint32(b) {
		return a, t.keyNext[a], b
	}
	return b, a, t.keyNext[b]
}

func (t *TLB) setValid(slot int32) {
	t.validBits[slot>>6] |= 1 << (slot & 63)
	t.numValid++
}

func (t *TLB) clearValid(slot int32) {
	t.validBits[slot>>6] &^= 1 << (slot & 63)
	t.numValid--
}

// lastFree returns the highest invalid slot — the reference scan lets
// every free slot it passes overwrite its victim choice, so the last one
// wins. The caller guarantees one exists (numValid < len(entries)); the
// phantom bits past len(entries) are permanently set and never reported.
func (t *TLB) lastFree() int32 {
	for w := len(t.validBits) - 1; w >= 0; w-- {
		if word := t.validBits[w]; word != ^uint64(0) {
			return int32(w<<6 + 63 - bits.LeadingZeros64(^word))
		}
	}
	panic("tlb: lastFree on full TLB")
}

func (t *TLB) lruPushBack(s int32) {
	t.lruPrev[s], t.lruNext[s] = t.lruTail, -1
	if t.lruTail >= 0 {
		t.lruNext[t.lruTail] = s
	} else {
		t.lruHead = s
	}
	t.lruTail = s
}

func (t *TLB) lruRemove(s int32) {
	p, n := t.lruPrev[s], t.lruNext[s]
	if p >= 0 {
		t.lruNext[p] = n
	} else {
		t.lruHead = n
	}
	if n >= 0 {
		t.lruPrev[n] = p
	} else {
		t.lruTail = p
	}
}

func (t *TLB) lruMoveBack(s int32) {
	if t.lruTail == s {
		return
	}
	t.lruRemove(s)
	t.lruPushBack(s)
}

// removeEntry invalidates the entry at slot, maintaining every auxiliary
// structure. The MRU register must be cleared by the caller (all callers
// are mutations).
func (t *TLB) removeEntry(slot int32) {
	t.idxRemove(slot)
	t.lruRemove(slot)
	t.clearValid(slot)
	t.entries[slot] = Entry{}
}

// hitAt applies the Hit bookkeeping for the entry at slot and records it
// in the MRU register.
func (t *TLB) hitAt(slot int32, vpn uint32, asid arch.ASID, dacr arch.DACR) Entry {
	e := &t.entries[slot]
	e.lastUse = t.clock
	t.lruMoveBack(slot)
	t.stats.Hits++
	t.mru = mruReg{ok: true, hw: t.DomainMatchInHW, slot: slot, vpn: vpn, asid: asid, dacr: dacr}
	return *e
}

// probe applies the lookup logic of one scan step to the entry at slot.
// done=false means the scan continues (no match, or domain-denied under
// hardware domain matching).
func (t *TLB) probe(slot int32, vpn uint32, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (e Entry, r Result, done bool) {
	ent := &t.entries[slot]
	if !ent.match(vpn, asid, t.largeMask) {
		return Entry{}, Miss, false
	}
	switch dacr.Access(ent.domain) {
	case arch.DomainNoAccess:
		if t.DomainMatchInHW {
			return Entry{}, Miss, false // hardware requires a domain match for a hit
		}
		t.stats.DomainFaults++
		return *ent, DomainFault, true
	case arch.DomainManager:
		return t.hitAt(slot, vpn, asid, dacr), Hit, true
	default: // client: check PTE permission bits
		if !ent.permit(kind) {
			t.stats.PermFaults++
			return *ent, PermFault, true
		}
		return t.hitAt(slot, vpn, asid, dacr), Hit, true
	}
}

// Lookup searches for a translation of va under the current ASID and DACR
// and returns the slot it resolved at (-1 on a Miss). On a Hit the
// matching entry is returned and its LRU state refreshed. A DomainFault
// or PermFault also returns the matching entry, so the exception handler
// can inspect it.
func (t *TLB) Lookup(va arch.VirtAddr, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (Entry, int32, Result) {
	t.clock++
	vpn := arch.VPN(va)

	// MRU register: a repeat of the last hitting probe resolves at the
	// same slot. The prior Hit under the same DACR rules out NoAccess; the
	// access kind may differ, so permissions are still checked.
	if t.mru.ok && t.mru.vpn == vpn && t.mru.asid == asid && t.mru.dacr == dacr &&
		t.mru.hw == t.DomainMatchInHW {
		slot := t.mru.slot
		e := &t.entries[slot]
		if acc := dacr.Access(e.domain); acc != arch.DomainNoAccess {
			if acc == arch.DomainManager || e.permit(kind) {
				return t.hitAt(slot, vpn, asid, dacr), slot, Hit
			}
			t.stats.PermFaults++
			return *e, slot, PermFault
		}
	}

	// Index probe: only the entries on the page's two key chains can
	// match; visit them in slot order.
	for a, b := t.heads(vpn); a != b; {
		var s int32
		s, a, b = t.pop(a, b)
		if e, r, done := t.probe(s, vpn, asid, dacr, kind); done {
			return e, s, r
		}
	}
	t.stats.Misses++
	return Entry{}, -1, Miss
}

// findMatch returns the first slot (in slot order) whose entry matches
// (vpn, asid) and — under hardware domain matching — has the same global
// kind, or -1. This is Insert's overwrite target.
func (t *TLB) findMatch(vpn uint32, asid arch.ASID, newGlobal bool) int32 {
	for a, b := t.heads(vpn); a != b; {
		var s int32
		s, a, b = t.pop(a, b)
		if e := &t.entries[s]; e.match(vpn, asid, t.largeMask) && !(t.DomainMatchInHW && e.global != newGlobal) {
			return s
		}
	}
	return -1
}

// Insert loads a translation, evicting the LRU entry when full, and
// returns the slot it filled. If an entry already translates
// (vpn, asid/global) it is overwritten in place.
func (t *TLB) Insert(va arch.VirtAddr, asid arch.ASID, frame arch.FrameNum, flags arch.PTEFlags, domain uint8) int32 {
	t.clock++
	t.mru.ok = false
	vpn := arch.VPN(va)
	newGlobal := flags&arch.PTEGlobal != 0

	// Victim precedence, as in the reference scan: a matching entry,
	// else the highest free slot, else the LRU entry — skipping, under
	// hardware domain matching, matching entries of the other global
	// kind (they coexist rather than being replaced). When every entry
	// is skipped the reference scan leaves its initial victim, slot 0.
	victim := t.findMatch(vpn, asid, newGlobal)
	if victim < 0 {
		if t.numValid < len(t.entries) {
			victim = t.lastFree()
		} else {
			victim = t.lruHead
			if t.DomainMatchInHW {
				for victim >= 0 && t.entries[victim].match(vpn, asid, t.largeMask) && t.entries[victim].global != newGlobal {
					victim = t.lruNext[victim]
				}
				if victim < 0 {
					victim = 0
				}
			}
		}
	}

	if t.entries[victim].valid && !t.entries[victim].match(vpn, asid, t.largeMask) {
		t.stats.Evictions++
		if t.bus.Wants(obs.EvTLBEvict) {
			v := &t.entries[victim]
			t.bus.Publish(obs.Event{
				Kind:   obs.EvTLBEvict,
				Source: t.name,
				Addr:   uint64(v.vpn) << arch.PageShift,
				Value:  uint64(v.asid),
			})
		}
	}
	if t.entries[victim].valid {
		t.removeEntry(victim)
	}
	large := flags&arch.PTELarge != 0
	if large {
		vpn &^= t.largeMask
	}
	t.entries[victim] = Entry{
		valid:   true,
		vpn:     vpn,
		asid:    asid,
		global:  flags&arch.PTEGlobal != 0,
		large:   large,
		domain:  domain,
		frame:   frame,
		flags:   flags,
		lastUse: t.clock,
	}
	t.idxAdd(victim)
	t.setValid(victim)
	t.lruPushBack(victim)
	t.stats.Insertions++
	if t.bus.Wants(obs.EvTLBInsert) {
		t.bus.Publish(obs.Event{
			Kind:   obs.EvTLBInsert,
			Source: t.name,
			Addr:   uint64(va),
			Value:  uint64(asid),
		})
	}
	return victim
}

// FlushAll invalidates every entry.
// An empty TLB is already in its reset state (removing the last entry
// leaves every derived structure empty), so flushing one costs only the
// counters: the data micro-TLB of a fetch-only context switch.
func (t *TLB) FlushAll() {
	t.mru.ok = false
	n := t.numValid
	if n != 0 {
		clear(t.entries)
		clear(t.buckets)
		t.numLarge = 0
		clear(t.validBits)
		t.validBits[len(t.validBits)-1] = t.phantom
		t.numValid = 0
		t.lruHead, t.lruTail = -1, -1
	}
	t.flushed(n)
}

// FlushASID invalidates the non-global entries of one address space.
// Global entries survive: that is precisely what lets zygote-like
// processes retain each other's shared-code translations.
func (t *TLB) FlushASID(asid arch.ASID) {
	t.mru.ok = false
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.global && e.asid == asid {
			t.removeEntry(int32(i))
			n++
		}
	}
	t.flushed(n)
}

// FlushNonGlobal invalidates every non-global entry, regardless of ASID.
// The shared-TLB kernel uses this on context switches between zygote-like
// processes when ASIDs are disabled: the global entries for
// zygote-preloaded shared code are identical in every zygote-like address
// space (and domain protection locks other processes out), so only the
// private translations must go.
func (t *TLB) FlushNonGlobal() int {
	t.mru.ok = false
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.global {
			t.removeEntry(int32(i))
			n++
		}
	}
	t.flushed(n)
	return n
}

// FlushGlobal invalidates every global entry, regardless of ASID — the
// inverse of FlushNonGlobal. On architectures without domain protection
// (Sv39), the shared-TLB kernel has no DACR to lock non-sharing
// processes out of the sharing set's global entries, so a switch to such
// a process must evict them; this models the software cost that replaces
// the ARM domain trick.
func (t *TLB) FlushGlobal() int {
	t.mru.ok = false
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.global {
			t.removeEntry(int32(i))
			n++
		}
	}
	t.flushed(n)
	return n
}

// FlushVA invalidates every entry translating the given virtual address,
// regardless of ASID or global bit: a 4KB entry for its page and a large
// entry for its block. The domain-fault handler uses this to evict the
// global entries a non-zygote process tripped over. Those entries are
// the ones on the page's two bucket chains whose key is the page's 4KB
// key or its block's large key; other keys sharing a bucket survive.
func (t *TLB) FlushVA(va arch.VirtAddr) int {
	t.mru.ok = false
	vpn := arch.VPN(va)
	small, large := entryKey(vpn, false), entryKey(vpn&^t.largeMask, true)
	n := 0
	for a, b := t.heads(vpn); a != b; {
		var s int32
		s, a, b = t.pop(a, b)
		e := &t.entries[s]
		if k := entryKey(e.vpn, e.large); k == small || k == large {
			t.removeEntry(s)
			n++
		}
	}
	t.flushed(n)
	return n
}

// FlushRange invalidates entries translating any page in [start, end).
func (t *TLB) FlushRange(start, end arch.VirtAddr, asid arch.ASID) int {
	t.mru.ok = false
	lo, hi := arch.VPN(start), arch.VPN(end-1)
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn >= lo && e.vpn <= hi && (e.global || e.asid == asid) {
			t.removeEntry(int32(i))
			n++
		}
	}
	t.flushed(n)
	return n
}

// Occupancy returns the number of valid entries and how many of them are
// global, a measure of capacity pressure.
func (t *TLB) Occupancy() (valid, global int) {
	for i := range t.entries {
		if t.entries[i].valid {
			valid++
			if t.entries[i].global {
				global++
			}
		}
	}
	return valid, global
}
