// The TLB's key index: plain hash buckets over the entry slots. buckets
// holds each bucket's lowest slot plus one (0: empty, so a flush resets
// the index with one clear), and TLB.keyNext links the rest of the
// bucket in ascending slot order. A bucket may mix keys; Entry.match
// filters them. There are four buckets per entry, rounded up to a power
// of two, so a bucket nearly always holds a single key.

package tlb

// newBuckets returns the bucket-head array for a TLB of n entries.
func newBuckets(n int) []int32 {
	b := 1
	for b < 4*n {
		b <<= 1
	}
	return make([]int32, b)
}

// bucket returns the bucket of key k: a Fibonacci multiply, with the
// xor-fold keeping the high bits relevant under the small mask.
func (t *TLB) bucket(k uint32) uint32 {
	h := k * 2654435769
	return (h ^ h>>16) & uint32(len(t.buckets)-1)
}
