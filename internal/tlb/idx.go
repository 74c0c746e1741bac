// idxTable is the TLB's key-to-slot index: a small open-addressed hash
// table with linear probing and backward-shift deletion, replacing a Go
// map on the hottest simulator path (every lookup, insert and targeted
// flush probes it). Each cell maps a key to the head of its key chain:
// the lowest slot holding an entry with that key (TLB.keyNext links the
// rest in ascending slot order). Capacity is four times the entry count
// rounded up to a power of two: at load factor ≤ 1/4 probe chains are
// nearly always a single cell, which keeps both get and the
// backward-shift in delAt short, and even the main TLB's table is only a
// few kilobytes. Purely an internal layout change: the differential
// tests against the reference linear TLB pin that behaviour is
// unchanged.

package tlb

// idxEmpty marks a free index cell. Real keys are entryKey values, whose
// low bit is always set, so they can never collide with it — and a
// flush empties the table with a single clear of the key array.
const idxEmpty uint32 = 0

type idxTable struct {
	keys  []uint32
	slots []int32
	mask  uint32
}

func newIdxTable(entries int) idxTable {
	capacity := 1
	for capacity < 4*entries {
		capacity <<= 1
	}
	return idxTable{
		keys:  make([]uint32, capacity),
		slots: make([]int32, capacity),
		mask:  uint32(capacity - 1),
	}
}

// hash spreads the key with a Fibonacci multiplier; the xor-fold keeps
// the high bits relevant under the small mask.
func (it *idxTable) hash(k uint32) uint32 {
	h := k * 2654435769
	return (h ^ h>>16) & it.mask
}

// find returns the cell holding k, or the empty cell ending k's probe
// sequence when k is absent.
func (it *idxTable) find(k uint32) uint32 {
	i := it.hash(k)
	for {
		if kk := it.keys[i]; kk == k || kk == idxEmpty {
			return i
		}
		i = (i + 1) & it.mask
	}
}

// get returns the head slot of k's chain, or -1 when no entry holds k.
func (it *idxTable) get(k uint32) int32 {
	if i := it.find(k); it.keys[i] == k {
		return it.slots[i]
	}
	return -1
}

// delAt empties the occupied cell i with backward-shift deletion: later
// entries of the probe chain slide back so lookups never need
// tombstones.
func (it *idxTable) delAt(i uint32) {
	j := i
	for {
		it.keys[i] = idxEmpty
		var kk uint32
		for {
			j = (j + 1) & it.mask
			kk = it.keys[j]
			if kk == idxEmpty {
				return
			}
			// An entry whose home position lies cyclically in (i, j]
			// is still reachable from its home; leave it. Anything
			// else must slide back into the hole at i.
			h := it.hash(kk)
			if i <= j {
				if i < h && h <= j {
					continue
				}
			} else if h > i || h <= j {
				continue
			}
			break
		}
		it.keys[i] = kk
		it.slots[i] = it.slots[j]
		i = j
	}
}

// clear empties the table. Slot values of empty cells are never read.
func (it *idxTable) clear() { clear(it.keys) }

// clone returns an independent copy, for checkpoint forks.
func (it *idxTable) clone() idxTable {
	return idxTable{
		keys:  append([]uint32(nil), it.keys...),
		slots: append([]int32(nil), it.slots...),
		mask:  it.mask,
	}
}
