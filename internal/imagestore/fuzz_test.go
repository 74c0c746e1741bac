// Native fuzz target for the image decoder, the store's byte-level trust
// boundary. Run it with
//
//	go test -run '^$' -fuzz FuzzDecodeImage -fuzztime 20s ./internal/imagestore
//
// An input is a mutation of one freshly encoded image rather than a
// whole file: an image is several megabytes, too large to keep a corpus
// of. The mutation XORs patch into the file at off and truncates it to
// keep bytes; the target then recomputes the header checksum, so the
// mutation reaches the gob META decoder, the section checks and the
// fingerprint check instead of stopping at the CRC.

package imagestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/workload"
)

var fuzzBase = sync.OnceValues(func() ([]byte, error) {
	sys, err := android.BootOpts(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), android.Options{})
	if err != nil {
		return nil, err
	}
	return encodeImage(bootKey(android.Options{}), checkpoint.Capture(sys))
})

// mutateImage applies one fuzz input to a copy of base.
func mutateImage(base []byte, off uint32, patch []byte, keep uint32) []byte {
	data := append([]byte(nil), base...)
	start := int(off) % len(data)
	for i := 0; i < len(patch) && start+i < len(data); i++ {
		data[start+i] ^= patch[i]
	}
	if int64(keep) < int64(len(data)) {
		data = data[:keep]
	}
	if len(data) >= 24 {
		binary.LittleEndian.PutUint64(data[16:24], uint64(crc32.Checksum(data[24:], crcTable)))
	}
	return data
}

func FuzzDecodeImage(f *testing.F) {
	base, err := fuzzBase()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), []byte(nil), uint32(math.MaxUint32))
	for _, off := range flipOffsets(len(base)) {
		f.Add(uint32(off), []byte{flipMask}, uint32(math.MaxUint32))
	}
	for _, n := range truncLengths(len(base)) {
		f.Add(uint32(0), []byte(nil), uint32(n))
	}
	for _, c := range setCorruptions(f, base) {
		f.Add(uint32(c.off), c.patch, uint32(math.MaxUint32))
	}
	u := workload.DefaultUniverse()
	f.Fuzz(func(t *testing.T, off uint32, patch []byte, keep uint32) {
		data := mutateImage(base, off, patch, keep)
		img, _, err := decodeImage(data, u)
		if err != nil {
			return
		}
		// Accepted: the machine must re-render, through the string path
		// rather than the streamed one the decoder checked, to the digest
		// the file stores.
		dir, err := parseHeader(data)
		if err != nil {
			t.Fatalf("accepted image fails its header check: %v", err)
		}
		meta, err := decodeMeta(data, dir)
		if err != nil {
			t.Fatalf("accepted image fails its META decode: %v", err)
		}
		sum := sha256.Sum256([]byte(img.Fingerprint()))
		if got := hex.EncodeToString(sum[:]); got != meta.FingerprintSHA {
			t.Fatalf("accepted image re-renders to digest %s, file stores %s", got, meta.FingerprintSHA)
		}
	})
}
