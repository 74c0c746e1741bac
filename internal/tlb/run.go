// Run-oriented lookup primitives for the batched execution engine
// (cpu.AccessBatch): resolve a reference once, then commit whole spans of
// consecutive TLB-hit iterations with one bookkeeping update.
//
// The contract with the scalar path is exact equivalence of all observable
// state. k consecutive scalar Lookups that hit the same entry perform:
// clock += k, entry.lastUse = final clock, Hits += k, k lruMoveBack calls
// (all but the first no-ops), and leave the MRU register describing the
// last query. CommitRunHits produces exactly that end state in O(1).
// Peek performs the index probe of Lookup without any of its mutations,
// so a run that peeks Miss/DomainFault/PermFault can fall back to the
// scalar path, which then counts the miss or fault exactly once.

package tlb

import "repro/internal/arch"

// Peek resolves va under (asid, dacr, kind) without mutating any TLB
// state: no clock advance, no counters, no LRU movement, no MRU update.
// On a Hit it returns the matching entry and its slot; the slot is the
// handle CommitRunHits and ResolvesVPN take. Peek returns exactly the
// Result a Lookup at this moment would return: it replays the index
// probe, and the MRU-register fast path Lookup would use is guaranteed
// to resolve at the same slot as the probe (see mruReg).
func (t *TLB) Peek(va arch.VirtAddr, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (Entry, int32, Result) {
	vpn := arch.VPN(va)

	// MRU register, mirroring Lookup's fast path without its bookkeeping:
	// a repeat of the last hitting probe resolves at the same slot, and
	// skipping the hashed index probe here is what keeps Peek cheaper than
	// a Lookup for the batch engine's dominant repeat-page case. On a
	// NoAccess domain Lookup falls through to the index probe; so do we.
	if t.mru.ok && t.mru.vpn == vpn && t.mru.asid == asid && t.mru.dacr == dacr &&
		t.mru.hw == t.DomainMatchInHW {
		slot := t.mru.slot
		e := &t.entries[slot]
		if acc := dacr.Access(e.domain); acc != arch.DomainNoAccess {
			if acc == arch.DomainManager || e.permit(kind) {
				return *e, slot, Hit
			}
			return *e, slot, PermFault
		}
	}

	for a, b := t.heads(vpn); a != b; {
		var s int32
		s, a, b = t.pop(a, b)
		if r, done := t.peekProbe(s, vpn, asid, dacr, kind); done {
			return t.entries[s], s, r
		}
	}
	return Entry{}, -1, Miss
}

// peekProbe is probe without the Hit/fault bookkeeping: the same match,
// domain, and permission decisions, mutating nothing.
func (t *TLB) peekProbe(slot int32, vpn uint32, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (r Result, done bool) {
	ent := &t.entries[slot]
	if !ent.match(vpn, asid, t.largeMask) {
		return Miss, false
	}
	switch dacr.Access(ent.domain) {
	case arch.DomainNoAccess:
		if t.DomainMatchInHW {
			return Miss, false
		}
		return DomainFault, true
	case arch.DomainManager:
		return Hit, true
	default:
		if !ent.permit(kind) {
			return PermFault, true
		}
		return Hit, true
	}
}

// CommitRunHits applies the bookkeeping of n consecutive scalar Lookup
// hits on the entry at slot, the last of which queried va under
// (asid, dacr). The caller must have established — via Peek, and
// ResolvesVPN for every page crossed — that each of the n lookups would
// have hit this entry, and must not have mutated the TLB in between.
func (t *TLB) CommitRunHits(slot int32, n uint64, va arch.VirtAddr, asid arch.ASID, dacr arch.DACR) {
	t.clock += n
	e := &t.entries[slot]
	e.lastUse = t.clock
	t.lruMoveBack(slot)
	t.stats.Hits += n
	t.mru = mruReg{ok: true, hw: t.DomainMatchInHW, slot: slot, vpn: arch.VPN(va), asid: asid, dacr: dacr}
}

// ResolvesVPN reports whether a Lookup of vpn would hit the entry at
// slot with the same outcome the entry already produced for an earlier
// page, letting a run advance across page boundaries inside a
// large-page entry without re-probing. For a 4KB entry this is simply
// "same page". For a large entry a 4KB entry for the new page at a lower
// slot would resolve first, so the advance is only safe while no 4KB
// entry exists for the new page — when one does, the caller must re-Peek,
// which decides the new page exactly. Domain and permission
// outcomes carry over because they depend only on the entry, the DACR,
// and the access kind, all fixed across a run.
func (t *TLB) ResolvesVPN(slot int32, vpn uint32, asid arch.ASID) bool {
	e := &t.entries[slot]
	if !e.match(vpn, asid, t.largeMask) {
		return false
	}
	if !e.large {
		return true
	}
	return t.idx.get(entryKey(vpn, false)) < 0
}

// LookupRun resolves up to max references at va, va+stride, ... and
// reports how many stayed resolved by the single entry the first
// reference hit: n consecutive hit iterations are committed with one
// CommitRunHits (large pages amortize thousands of iterations per
// probe), and the entry is returned for address computation. n = 0
// means the first reference does not hit — nothing was committed, and
// the scalar path must take over at va to count the miss or deliver
// the fault exactly as before.
func (t *TLB) LookupRun(va, stride arch.VirtAddr, max int, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (int, Entry) {
	if max <= 0 {
		return 0, Entry{}
	}
	e, slot, r := t.Peek(va, asid, dacr, kind)
	if r != Hit {
		return 0, Entry{}
	}
	n := 1
	vpn := arch.VPN(va)
	last := va
	for n < max {
		nva := last + stride
		if nvpn := arch.VPN(nva); nvpn != vpn {
			if !t.ResolvesVPN(slot, nvpn, asid) {
				break
			}
			vpn = nvpn
		}
		last = nva
		n++
	}
	t.CommitRunHits(slot, uint64(n), last, asid, dacr)
	return n, e
}
