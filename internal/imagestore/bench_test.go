// BenchmarkImageLoad vs BenchmarkImageBoot is the store's reason to
// exist: admitting a stored image (mmap + checksum + gob metadata +
// in-place casts + streamed fingerprint verification) versus simulating the boot
// it replaces. BENCH_imagestore.json cites both.

package imagestore

import (
	"testing"

	"repro/internal/android"
	"repro/internal/checkpoint"
)

func BenchmarkImageBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := bootSys(b, android.Options{})
		if sys == nil {
			b.Fatal("boot returned nil")
		}
	}
}

func BenchmarkImageLoad(b *testing.B) {
	store := openStore(b)
	key := bootKey(android.Options{})
	store.Save(key, checkpoint.Capture(bootSys(b, android.Options{})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, ok := store.Load(key)
		if !ok {
			b.Fatal("store missed")
		}
		_ = img
	}
}
