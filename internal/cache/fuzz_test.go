// Native fuzz target for the cache differential. Run it with
//
//	go test -run '^$' -fuzz FuzzCacheDifferential -fuzztime 20s ./internal/cache
//
// The input's first byte picks the L1 geometry; every following 4-byte
// group is one operation on a two-level hierarchy: an Access, an
// AccessRun (short, set-spanning, or wrapping the L1 set space so the
// fused engine and its memo run), or a FlushAll of one or both levels.

package cache

import (
	"testing"

	"repro/internal/arch"
)

// FlushAll empties the reference level, as Cache.FlushAll does.
func (r *refCache) FlushAll() {
	for si := range r.tags {
		for w := range r.tags[si] {
			r.tags[si][w] = tagInvalid
			r.stamps[si][w] = 0
		}
	}
}

// fuzzGeometries are the L1 shapes the first input byte selects from,
// one per associativity; all share the L2 below.
var fuzzGeometries = []Config{
	{Name: "DM", Size: 512, LineSize: 32, Assoc: 1, HitLatency: 1},
	{Name: "L1-2", Size: 1 << 10, LineSize: 32, Assoc: 2, HitLatency: 1},
	{Name: "L1-4", Size: 2 << 10, LineSize: 32, Assoc: 4, HitLatency: 1},
	{Name: "L1-8", Size: 4 << 10, LineSize: 32, Assoc: 8, HitLatency: 2},
}

// FuzzCacheDifferential drives three hierarchies with one operation
// stream: the Cache under test with AccessRun as given, a scalar twin
// that replays every run as single Access calls, and the stamped
// refCache. All three must agree on every latency and stall total and
// on both levels' counters after every operation; the Cache and its
// twin must hold identical set records, and the Cache must agree with
// the reference on residency at the end.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 0x10, 0, 0, 1, 0, 0x10, 40, 1, 0, 0x10, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l1cfg := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		l2cfg := Config{Name: "L2", Size: 16 << 10, LineSize: 32, Assoc: 8, HitLatency: 10}
		got := New(l1cfg, New(l2cfg, nil, 50), 0)
		twin := New(l1cfg, New(l2cfg, nil, 50), 0)
		ref := newRef(l1cfg, newRef(l2cfg, nil, 50), 0)
		nSets := int(got.setMask) + 1
		const pool = 64 << 10
		ops := data[1:]
		for i := 0; i+4 <= len(ops); i += 4 {
			op, raw, arg := ops[i], uint32(ops[i+1])<<8|uint32(ops[i+2]), ops[i+3]
			pa := arch.PhysAddr(raw<<6) % pool
			switch op % 8 {
			case 0, 1, 2: // single access
				g, w, r := got.Access(pa), twin.Access(pa), ref.Access(pa)
				if g != w || g != r {
					t.Fatalf("op %d: Access(%#x) latency %d, twin %d, reference %d", i/4, pa, g, w, r)
				}
			case 3, 4, 5, 6: // run of 1..3*nSets lines, often wrapping the set space
				n := 1 + int(arg)%(3*nSets)
				g := got.AccessRun(pa, n)
				w, r := 0, 0
				for k := 0; k < n; k++ {
					lpa := pa + arch.PhysAddr(k*l1cfg.LineSize)
					if lat := twin.Access(lpa); lat > 1 {
						w += lat - 1
					}
					if lat := ref.Access(lpa); lat > 1 {
						r += lat - 1
					}
				}
				if g != w || g != r {
					t.Fatalf("op %d: AccessRun(%#x, %d) stall %d, twin %d, reference %d", i/4, pa, n, g, w, r)
				}
			default: // flush the L1, or the whole hierarchy
				got.FlushAll()
				twin.FlushAll()
				ref.FlushAll()
				if arg&1 != 0 {
					got.next.FlushAll()
					twin.next.FlushAll()
					ref.next.FlushAll()
				}
			}
			for _, lv := range [][3]Stats{{got.stats, twin.stats, ref.stats}, {got.next.stats, twin.next.stats, ref.next.stats}} {
				if lv[0] != lv[1] || lv[0] != lv[2] {
					t.Fatalf("op %d: stats %+v, twin %+v, reference %+v", i/4, lv[0], lv[1], lv[2])
				}
			}
			for _, pair := range [][2]*Cache{{got, twin}, {got.next, twin.next}} {
				for si := range pair[0].sets {
					if pair[0].sets[si] != pair[1].sets[si] {
						t.Fatalf("op %d: %s set %d = %+v, twin %+v", i/4, pair[0].cfg.Name, si, pair[0].sets[si], pair[1].sets[si])
					}
				}
			}
		}
		for pa := arch.PhysAddr(0); pa < pool; pa += 32 {
			if g, r := got.Contains(pa), ref.Contains(pa); g != r {
				t.Fatalf("Contains(%#x) = %v, reference %v", pa, g, r)
			}
			if g, r := got.next.Contains(pa), ref.next.Contains(pa); g != r {
				t.Fatalf("L2 Contains(%#x) = %v, reference %v", pa, g, r)
			}
		}
	})
}
