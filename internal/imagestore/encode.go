package imagestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc32"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// fileRange locates one file's page array inside the FILEPAGES section,
// in FilePage elements relative to the section start.
type fileRange struct {
	Off, N int
}

// metaDoc is the gob document of the META section: the full cache key
// (collision guard for the hashed file name), a digest of the image
// fingerprint the loader verifies before admission (the text runs to
// hundreds of kilobytes; the loader re-renders it from the restored
// machine straight into the hash and compares digests), the machine
// snapshot with its bulky arrays stripped into the binary sections, and
// the placement records needed to stitch them back. gob does not keep
// nil-versus-empty apart (empty slices decode as nil) and flattens
// pointers; nothing in the snapshot depends on either distinction.
type metaDoc struct {
	Key            string
	FingerprintSHA string
	TableFrames    []arch.FrameNum
	FileRanges     []fileRange
	System         android.SystemSnapshot
}

// fingerprintDigest is the stored form of an image's fingerprint: the
// hex SHA-256 of its text, rendered straight into the hash.
func fingerprintDigest(img *checkpoint.Image) string {
	h := sha256.New()
	_ = img.WriteFingerprint(h) // hash writes never fail
	return hex.EncodeToString(h.Sum(nil))
}

// cacheSnapshots lists the machine's cache levels in the fixed section
// order: the shared L2, then each core's L1I and L1D. Encoder and
// decoder must agree on this order; the arrays are stored back to back
// with lengths derived from each level's Config.
func cacheSnapshots(k *core.KernelSnapshot) []*cache.Snapshot {
	cs := make([]*cache.Snapshot, 0, 1+2*len(k.CPUs))
	cs = append(cs, &k.L2)
	for i := range k.CPUs {
		cs = append(cs, &k.CPUs[i].L1I, &k.CPUs[i].L1D)
	}
	return cs
}

// encodeImage renders the image as one image-file byte buffer.
func encodeImage(key string, img *checkpoint.Image) ([]byte, error) {
	snap, files, tables := img.Proto().SnapshotState()
	m, ok := arch.Lookup(snap.Kernel.Arch)
	if !ok {
		return nil, fmt.Errorf("imagestore: unknown architecture %q", snap.Kernel.Arch)
	}
	stride := m.Geometry().LeafEntries

	meta := metaDoc{Key: key, FingerprintSHA: fingerprintDigest(img)}

	// Strip the bulky arrays out of the snapshot into flat sections; the
	// remaining snapshot is the META document.
	frames := snap.Kernel.Phys.Frames
	snap.Kernel.Phys.Frames = nil
	freeList := snap.Kernel.Phys.FreeList
	snap.Kernel.Phys.FreeList = nil

	var sets []cache.Set
	for _, cs := range cacheSnapshots(&snap.Kernel) {
		sets = append(sets, cs.Sets...)
		cs.Sets = nil
	}

	var slots []pagetable.SlotSnapshot
	for i := range snap.Kernel.Procs {
		pt := &snap.Kernel.Procs[i].MM.PT
		slots = append(slots, pt.Slots...)
		pt.Slots = nil
	}

	ptes := make([]pagetable.PTE, 0, len(tables)*stride)
	meta.TableFrames = make([]arch.FrameNum, len(tables))
	for i, t := range tables {
		p := t.SnapshotPTEs()
		if len(p) != stride {
			return nil, fmt.Errorf("imagestore: leaf table %d has %d PTEs, geometry wants %d", i, len(p), stride)
		}
		ptes = append(ptes, p...)
		meta.TableFrames[i] = t.Frame
	}

	var filePages []vm.FilePage
	meta.FileRanges = make([]fileRange, len(files))
	for i, f := range files {
		pg := f.SnapshotPages()
		meta.FileRanges[i] = fileRange{Off: len(filePages), N: len(pg)}
		filePages = append(filePages, pg...)
	}

	meta.System = snap
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(&meta); err != nil {
		return nil, fmt.Errorf("imagestore: encoding metadata: %w", err)
	}

	sections := [numSections][]byte{
		secMeta:      metaBuf.Bytes(),
		secFrames:    bytesOf(frames),
		secFreeList:  bytesOf(freeList),
		secPTEs:      bytesOf(ptes),
		secPTSlots:   bytesOf(slots),
		secFilePages: bytesOf(filePages),
		secCacheSets: bytesOf(sets),
	}

	// Lay the sections out 8-aligned in index order behind the header.
	var dir [numSections]sectionRange
	off := uint64(headerSize)
	for i, s := range sections {
		off = (off + 7) &^ 7
		dir[i] = sectionRange{Off: off, Len: uint64(len(s))}
		off += uint64(len(s))
	}
	buf := make([]byte, (off+7)&^7)
	le := binary.LittleEndian
	copy(buf[0:8], magic)
	le.PutUint32(buf[8:12], FormatVersion)
	hostPutUint32(buf[12:16], endianTag)
	le.PutUint32(buf[24:28], numSections)
	le.PutUint32(buf[28:32], layoutHash())
	for i, r := range dir {
		le.PutUint64(buf[32+i*16:], r.Off)
		le.PutUint64(buf[32+i*16+8:], r.Len)
	}
	for i, s := range sections {
		copy(buf[dir[i].Off:], s)
	}
	le.PutUint64(buf[16:24], uint64(crc32.Checksum(buf[24:], crcTable)))
	return buf, nil
}
