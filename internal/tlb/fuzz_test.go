// Native fuzz target for the TLB differential. Run it with
//
//	go test -run '^$' -fuzz FuzzTLBDifferential -fuzztime 20s ./internal/tlb
//
// The input is the stream of random decisions the differential tests
// draw from a seeded generator, so the fuzzer steers every choice: the
// TLB size and large-page factor, the operation (lookup, insert, every
// flush kind, the batch engine's peek-and-commit, a DomainMatchInHW
// toggle) and all of its operands.

package tlb

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/arch/armv7"
	"repro/internal/arch/sv39"
)

// byteSource is a rand.Source that replays fuzz input: each Int63 takes
// the next four bytes (zero once the input runs out) as the 31 bits
// rand.Intn reads.
type byteSource struct {
	data []byte
}

func (s *byteSource) Int63() int64 {
	var b [4]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return int64(binary.LittleEndian.Uint32(b[:])&(1<<31-1)) << 32
}

func (s *byteSource) Seed(int64) {}

// FuzzTLBDifferential drives the indexed TLB and the linear reference
// through one fuzz-chosen operation stream and demands agreement on
// every operation's outcome and on the complete entry state after every
// step, exactly as the seeded differential tests do.
func FuzzTLBDifferential(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		rng := rand.New(src)
		size := []int{1, 2, 3, 8, 32, 128}[rng.Intn(6)]
		ppl := []int{armv7.PagesPerLargePage, sv39.PagesPerMegaPage}[rng.Intn(2)]
		indexed := New("fuzz", size, ppl)
		ref := newLinear(size, ppl)
		dacrs := diffDACRs()
		draw := uniformDraw(48, 8)
		for step := 0; len(src.data) > 0; step++ {
			switch r := rng.Intn(110); {
			case r < 100:
				diffOp(t, rng, indexed, ref, dacrs, draw, r)
			case r < 108:
				diffPeekCommit(t, rng, indexed, ref, dacrs, draw)
			default:
				hw := rng.Intn(2) == 0
				indexed.DomainMatchInHW = hw
				ref.DomainMatchInHW = hw
			}
			diffCompareState(t, step, indexed, ref)
		}
	})
}
