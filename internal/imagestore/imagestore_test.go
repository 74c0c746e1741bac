// Tests for the persistent image store: a stored image round-trips to a
// machine byte-identical with a fresh boot, defective files of every
// kind come back as clean misses (never a panic, never a wrong
// machine), distinct architectures never collide, and the load fast
// path stays allocation-free where the format promises it.

package imagestore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/android"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/workload"

	_ "repro/internal/arch/sv39"
)

func bootSys(t testing.TB, opts android.Options) *android.System {
	t.Helper()
	sys, err := android.BootOpts(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func bootKey(opts android.Options) string {
	return checkpoint.Key(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), opts)
}

func openStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), workload.DefaultUniverse())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exercise launches, runs and exits one app — the mutation mix the
// behavioral equivalence tests replay on machines of both origins.
func exercise(t *testing.T, sys *android.System) {
	t.Helper()
	prof := workload.BuildProfile(sys.Universe, workload.Suite()[0])
	app, _, err := sys.LaunchApp(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Exit(app.Proc)
}

func TestRoundTrip(t *testing.T) {
	store := openStore(t)
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	key := bootKey(android.Options{})

	if _, ok := store.Load(key); ok {
		t.Fatal("empty store reported a hit")
	}
	store.Save(key, img)
	loaded, ok := store.Load(key)
	if !ok {
		t.Fatal("store missed the image it just saved")
	}
	if loaded.Fingerprint() != img.Fingerprint() {
		t.Error("loaded image fingerprint differs from the saved one")
	}

	// Forks of the loaded image must behave byte-identically to forks of
	// the original: same starting fingerprint, same state after running
	// the same workload.
	a, b := img.Fork(), loaded.Fork()
	if checkpoint.Capture(a).Fingerprint() != checkpoint.Capture(b).Fingerprint() {
		t.Fatal("fork of loaded image differs from fork of original")
	}
	exercise(t, a)
	exercise(t, b)
	if checkpoint.Capture(a).Fingerprint() != checkpoint.Capture(b).Fingerprint() {
		t.Error("identical workloads diverged between loaded-image and original forks")
	}
	// And running the loaded image's fork left the loaded image pristine.
	if loaded.Fingerprint() != img.Fingerprint() {
		t.Error("running a fork mutated the loaded image")
	}
}

// TestCrossArch pins the key/arch invariant: images of different MMU
// architectures live under distinct keys, never shadow each other, and
// each round-trips to its own machine.
func TestCrossArch(t *testing.T) {
	armOpts := android.Options{}
	svOpts := android.Options{Arch: "sv39"}
	armKey, svKey := bootKey(armOpts), bootKey(svOpts)
	if armKey == svKey {
		t.Fatal("armv7 and sv39 boots share a cache key")
	}
	if fileName(armKey) == fileName(svKey) {
		t.Fatal("armv7 and sv39 keys hash to one store file")
	}

	store := openStore(t)
	arm := checkpoint.Capture(bootSys(t, armOpts))
	sv := checkpoint.Capture(bootSys(t, svOpts))
	store.Save(armKey, arm)
	store.Save(svKey, sv)
	if names, err := store.List(); err != nil || len(names) != 2 {
		t.Fatalf("List() = %v, %v; want two images", names, err)
	}
	for _, tc := range []struct {
		name string
		key  string
		img  *checkpoint.Image
	}{{"armv7", armKey, arm}, {"sv39", svKey, sv}} {
		loaded, ok := store.Load(tc.key)
		if !ok {
			t.Fatalf("%s image missing from store", tc.name)
		}
		if loaded.Fingerprint() != tc.img.Fingerprint() {
			t.Errorf("%s image round-trip changed the machine", tc.name)
		}
	}
}

// TestCacheIntegration drives the store through checkpoint.Cache: a
// first process boots cold and writes back, a second process (a fresh
// cache over the same directory) admits the stored image without
// booting.
func TestCacheIntegration(t *testing.T) {
	store := openStore(t)
	key := bootKey(android.Options{})
	boots := 0
	boot := func() (*android.System, error) {
		boots++
		return android.BootOpts(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), android.Options{})
	}

	cold := checkpoint.NewCache()
	cold.SetStore(store)
	coldImg, err := cold.Image(key, boot)
	if err != nil {
		t.Fatal(err)
	}
	if boots != 1 {
		t.Fatalf("cold cache booted %d times, want 1", boots)
	}

	warm := checkpoint.NewCache()
	warm.SetStore(store)
	warmImg, err := warm.Image(key, boot)
	if err != nil {
		t.Fatal(err)
	}
	if boots != 1 {
		t.Errorf("warm cache booted again instead of loading from the store")
	}
	if warmImg.Fingerprint() != coldImg.Fingerprint() {
		t.Error("warm-started image differs from the cold boot")
	}
}

// flipMask is the bit the corruption matrix flips.
const flipMask = 0x10

// flipOffsets lists the corruption matrix's bit-flip offsets for an
// n-byte image file: ~64 offsets spread across the whole file, plus the
// first and last byte of every header field region.
func flipOffsets(n int) []int {
	offsets := []int{0, 7, 8, 11, 12, 15, 16, 23, 24, 27, 28, 31, 32, headerSize - 1, n - 1}
	for off := headerSize; off < n; off += (n-headerSize)/64 + 1 {
		offsets = append(offsets, off)
	}
	return offsets
}

// truncLengths lists the corruption matrix's truncation lengths for an
// n-byte image file.
func truncLengths(n int) []int {
	return []int{0, 1, headerSize - 1, headerSize, n / 3, n - 1}
}

// setCorruption is one crafted defect in a stored cache set record:
// XOR patch at file offset off breaks exactly one of the invariants
// cache.Restore checks, and want is a fragment of the resulting error.
type setCorruption struct {
	name  string
	off   int
	patch []byte
	want  string
}

// setCorruptions crafts one defect per admission rule for set records
// in an encoded image: a valid way past the associativity, a gap in the
// valid-way prefix, a tag indexing another set, a tag held twice, a
// nonzero age row for an empty way, a nonzero age diagonal, and an age
// word that orders a pair of ways both ways.
func setCorruptions(t testing.TB, base []byte) []setCorruption {
	t.Helper()
	dir, err := parseHeader(base)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := decodeMeta(base, dir)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := castSlice[cache.Set](base, dir[secCacheSets], "cache-set")
	if err != nil {
		t.Fatal(err)
	}
	const recSize = int(unsafe.Sizeof(cache.Set{}))
	// find returns the file offset and a copy of the first record of a
	// level with the given associativity whose valid-way count satisfies
	// ok.
	find := func(assoc int, ok func(valid int) bool) (int, cache.Set) {
		first := 0
		for _, cs := range cacheSnapshots(&meta.System.Kernel) {
			n := cs.Config.Size / (cs.Config.LineSize * cs.Config.Assoc)
			for i := first; cs.Config.Assoc == assoc && i < first+n; i++ {
				valid := 0
				for valid < cache.MaxAssoc && sets[i].Tags[valid] != ^uint32(0) {
					valid++
				}
				if ok(valid) {
					return int(dir[secCacheSets].Off) + i*recSize, sets[i]
				}
			}
			first += n
		}
		t.Fatalf("no %d-way set record fits the corruption", assoc)
		return 0, cache.Set{}
	}
	// corrupt XOR-encodes the change from old to new record.
	corrupt := func(name string, off int, old, new cache.Set, want string) setCorruption {
		o := unsafe.Slice((*byte)(unsafe.Pointer(&old)), recSize)
		n := unsafe.Slice((*byte)(unsafe.Pointer(&new)), recSize)
		patch := make([]byte, recSize)
		for i := range patch {
			patch[i] = o[i] ^ n[i]
		}
		return setCorruption{name: name, off: off, patch: patch, want: want}
	}
	// alias is a tag of the same set that no way holds.
	alias := func(s cache.Set) uint32 { return s.Tags[0] ^ 1<<30 }
	var cs []setCorruption

	off, s := find(4, func(v int) bool { return v == 4 })
	bad := s
	bad.Tags[4] = alias(s)
	cs = append(cs, corrupt("way-past-assoc", off, s, bad, "associativity"))

	off, s = find(8, func(v int) bool { return v >= 1 && v <= 6 })
	bad = s
	for w := range bad.Tags {
		if bad.Tags[w] == ^uint32(0) {
			bad.Tags[w+1] = alias(s)
			break
		}
	}
	cs = append(cs, corrupt("prefix-gap", off, s, bad, "follows empty way"))

	off, s = find(8, func(v int) bool { return v >= 1 })
	bad = s
	bad.Tags[0] ^= 1
	cs = append(cs, corrupt("foreign-tag", off, s, bad, "belongs to set"))

	off, s = find(8, func(v int) bool { return v >= 2 })
	bad = s
	bad.Tags[1] = bad.Tags[0]
	cs = append(cs, corrupt("duplicate-tag", off, s, bad, "held by ways"))

	off, s = find(8, func(v int) bool { return v >= 1 && v < 8 })
	bad = s
	bad.Age |= 1 << 56 // row 7, column 0
	cs = append(cs, corrupt("empty-way-age-row", off, s, bad, "nonzero row"))

	off, s = find(8, func(v int) bool { return v >= 1 })
	bad = s
	bad.Age |= 1 // [0][0]
	cs = append(cs, corrupt("age-diagonal", off, s, bad, "nonzero diagonal"))

	off, s = find(8, func(v int) bool { return v >= 2 })
	bad = s
	bad.Age |= 1<<1 | 1<<8 // [0][1] and [1][0]
	cs = append(cs, corrupt("age-pair-both-ways", off, s, bad, "both ways"))
	return cs
}

// TestSetRecordCorruptionRejected admits a stored image only when every
// cache set record keeps the invariants the hot path relies on: each
// crafted defect, with the checksum fixed up, must fail decoding with
// the rule it breaks, and the store must discard the file.
func TestSetRecordCorruptionRejected(t *testing.T) {
	store := openStore(t)
	key := bootKey(android.Options{})
	good, err := encodeImage(key, checkpoint.Capture(bootSys(t, android.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	u := workload.DefaultUniverse()
	if _, _, err := decodeImage(append([]byte(nil), good...), u); err != nil {
		t.Fatalf("unmodified image rejected: %v", err)
	}
	path := filepath.Join(store.Dir(), fileName(key))
	for _, c := range setCorruptions(t, good) {
		t.Run(c.name, func(t *testing.T) {
			bad := mutateImage(good, uint32(c.off), c.patch, math.MaxUint32)
			if _, _, err := decodeImage(bad, u); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("decodeImage error = %v, want one containing %q", err, c.want)
			}
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := store.Load(key); ok {
				t.Fatal("store admitted the defective image")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("defective file not removed after rejection")
			}
		})
	}
}

// TestPreviousFormatRemoved stores a file that is intact except for
// the previous format version: the store must reject it, remove it, and
// write the current format on the next save.
func TestPreviousFormatRemoved(t *testing.T) {
	store := openStore(t)
	key := bootKey(android.Options{})
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	good, err := encodeImage(key, img)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(old[8:12], FormatVersion-1)
	old = mutateImage(old, 0, nil, math.MaxUint32) // checksum fixed up
	path := filepath.Join(store.Dir(), fileName(key))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("store admitted a previous-format file")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("previous-format file not removed")
	}
	store.Save(key, img)
	if _, ok := store.Load(key); !ok {
		t.Fatal("rewritten image does not load")
	}
}

// TestCorruptionRejected flips one bit at offsets spread across every
// region of a stored file — magic, version, checksum, directory, gob
// metadata, each binary section — and truncates it at a spread of
// lengths. Every defect must come back as a clean miss (the loader may
// never panic or admit a wrong machine), the bad file must be removed,
// and the caller's cold-boot fallback must still produce the original
// machine.
func TestCorruptionRejected(t *testing.T) {
	store := openStore(t)
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	key := bootKey(android.Options{})
	good, err := encodeImage(key, img)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Dir(), fileName(key))
	fresh := img.Fingerprint()

	check := func(t *testing.T, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("loader panicked on defective file: %v", r)
			}
		}()
		if _, ok := store.Load(key); ok {
			t.Fatal("loader admitted a defective file")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Error("defective file not removed after rejection")
		}
	}

	for _, off := range flipOffsets(len(good)) {
		mutated := append([]byte(nil), good...)
		mutated[off] ^= flipMask
		t.Run("", func(t *testing.T) { check(t, mutated) })
	}
	for _, n := range truncLengths(len(good)) {
		t.Run("", func(t *testing.T) { check(t, good[:n:n]) })
	}

	// A future format version must be rejected even with a valid
	// checksum over the rest of the file.
	versionBumped := append([]byte(nil), good...)
	versionBumped[8]++
	t.Run("version", func(t *testing.T) { check(t, versionBumped) })

	// A valid file stored under the wrong name (key mismatch) is also
	// rejected: content addressing may never serve another boot's image.
	t.Run("wrong-key", func(t *testing.T) {
		otherKey := bootKey(android.Options{CPUs: 4})
		if err := os.WriteFile(filepath.Join(store.Dir(), fileName(otherKey)), good, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Load(otherKey); ok {
			t.Fatal("loader served an image stored under a different key")
		}
	})

	// After all those rejections the fallback path is a cold boot —
	// byte-identical to the machine the file once held.
	if got := checkpoint.Capture(bootSys(t, android.Options{})).Fingerprint(); got != fresh {
		t.Error("cold-boot fallback differs from the originally stored machine")
	}
}

// TestListSorted pins deterministic store iteration: List returns image
// names in sorted order regardless of directory enumeration or creation
// order, and ignores foreign files. The fixture files were deliberately
// created out of name order.
func TestListSorted(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/listing")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata/listing", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := Open(dir, workload.DefaultUniverse())
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"00-but-sorts-first.img", "mm-middle.img", "zz-last-created.img"}
	if len(names) != len(want) {
		t.Fatalf("List() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List() = %v, want %v", names, want)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", workload.DefaultUniverse()); err == nil {
		t.Error("Open(\"\") succeeded; want error")
	}
}

// TestParseHeaderZeroAlloc pins the mmap fast path's promise: header
// validation and section-directory extraction allocate nothing, so a
// warm load's overhead is the checksum pass plus the gob metadata.
func TestParseHeaderZeroAlloc(t *testing.T) {
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	buf, err := encodeImage(bootKey(android.Options{}), img)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := parseHeader(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("parseHeader allocates %.0f times per call, want 0", allocs)
	}
}
