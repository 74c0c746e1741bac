package checkpoint

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/obs"
)

// fpChunk is the render buffer's flush mark: the text goes to the
// destination in pieces of about this size, so a streamed render (the
// image store hashes it straight into SHA-256) never holds the whole
// text, which runs to hundreds of kilobytes.
const fpChunk = 32 << 10

// fpWriter renders fingerprint text into a reusable byte buffer. The
// high-cardinality lines — PTEs, resident file pages, VMAs, source
// counters — are built with strconv appends; the handful of per-process
// struct lines keep fmt's %+v so a new counter field reaches the
// fingerprint without touching this file.
type fpWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// spill hands the buffer to the destination once it passes the flush
// mark. Call it between entries, never inside one.
func (f *fpWriter) spill() {
	if len(f.b) >= fpChunk {
		f.flush()
	}
}

func (f *fpWriter) flush() {
	if len(f.b) > 0 && f.err == nil {
		_, f.err = f.w.Write(f.b)
	}
	f.b = f.b[:0]
}

func (f *fpWriter) endLine() {
	f.b = append(f.b, '\n')
	f.spill()
}

func (f *fpWriter) str(s string)   { f.b = append(f.b, s...) }
func (f *fpWriter) quote(s string) { f.b = strconv.AppendQuote(f.b, s) }
func (f *fpWriter) int(v int)      { f.b = strconv.AppendInt(f.b, int64(v), 10) }
func (f *fpWriter) uint(v uint64)  { f.b = strconv.AppendUint(f.b, v, 10) }
func (f *fpWriter) bool(v bool)    { f.b = strconv.AppendBool(f.b, v) }

// hex renders v as fmt's %#x does.
func (f *fpWriter) hex(v uint64) {
	f.b = append(f.b, "0x"...)
	f.b = strconv.AppendUint(f.b, v, 16)
}

func (f *fpWriter) printf(format string, args ...any) {
	f.b = fmt.Appendf(f.b, format, args...)
}

// Fingerprint renders the image's complete observable state as a string:
// kernel and allocator counters, sharing stats, every process's regions,
// page tables and context, every page-cache file, and every core's TLB,
// cache and cycle state. Two fingerprints are equal iff the machines are
// observably identical; the aliasing-hazard tests take one before and
// after mutating a fork to prove the image never changes.
func (img *Image) Fingerprint() string {
	var b strings.Builder
	_ = img.WriteFingerprint(&b) // a strings.Builder never fails
	return b.String()
}

// WriteFingerprint streams the text Fingerprint returns to w, in
// chunks, without building it as one string. It returns the first
// error w reports.
func (img *Image) WriteFingerprint(w io.Writer) error {
	sys := img.proto
	k := sys.Kernel
	f := &fpWriter{w: w, b: make([]byte, 0, fpChunk+fpChunk/2)}

	f.printf("counters=%+v\n", k.Counters)
	ps := k.Phys.Stats()
	f.printf("phys alloc=%d freed=%d inuse=%d kinds=", ps.Allocated, ps.Freed, ps.InUse)
	kinds := make([]int, 0, len(ps.ByKind))
	for kind := range ps.ByKind {
		kinds = append(kinds, int(kind))
	}
	sort.Ints(kinds)
	for _, kind := range kinds {
		f.int(kind)
		f.str(":")
		f.int(ps.ByKind[mem.FrameKind(kind)])
		f.str(",")
	}
	f.printf("\nsharing=%+v\n", k.SharingStats())

	for _, p := range k.Processes() {
		f.printf("proc %d %q zygote=%v child=%v alive=%v forkstats=%+v ptescopied=%d\n",
			p.PID, p.Name, p.IsZygote, p.IsZygoteChild, p.Alive(), p.ForkStats, p.PTEsCopied)
		f.printf("  ctx asid=%d dacr=%#x stats=%+v\n", p.Ctx.ASID, p.Ctx.DACR, p.Ctx.Stats)
		f.printf("  mm counters=%+v ptstats=%+v\n", p.MM.Counters, p.MM.PT.Stats())
		for _, v := range p.MM.VMAs() {
			name := ""
			if v.File != nil {
				name = v.File.Name
			}
			f.str("  vma ")
			f.hex(uint64(v.Start))
			f.str("-")
			f.hex(uint64(v.End))
			f.str(" prot=")
			f.str(v.Prot.String())
			f.str(" flags=")
			f.uint(uint64(v.Flags))
			f.str(" file=")
			f.quote(name)
			f.str(" off=")
			f.int(v.FileOff)
			f.str(" name=")
			f.quote(v.Name)
			f.str(" cat=")
			f.uint(uint64(v.Category))
			f.endLine()
		}
		pt := p.MM.PT
		for idx := 0; idx < pt.NumSlots(); idx++ {
			e := pt.Slot(idx)
			if !e.Valid() {
				continue
			}
			f.str("  l1[")
			f.int(idx)
			f.str("] frame=")
			f.uint(uint64(e.Table.Frame))
			f.str(" domain=")
			f.uint(uint64(e.Domain))
			f.str(" needcopy=")
			f.bool(e.NeedCopy)
			f.str(" pop=")
			f.int(e.Table.Populated())
			f.str(":")
			for i := 0; i < e.Table.Len(); i++ {
				if pte := e.Table.PTE(i); pte.Valid() {
					f.str(" ")
					f.int(i)
					f.str("=")
					f.uint(uint64(pte.Frame))
					f.str("/")
					f.uint(uint64(pte.Flags))
					f.str("/")
					f.uint(uint64(pte.Soft))
					f.spill()
				}
			}
			f.endLine()
		}
	}

	for _, file := range sys.Files() {
		if file == nil {
			continue
		}
		f.str("file ")
		f.quote(file.Name)
		f.str(" size=")
		f.int(file.Size)
		f.str(" resident=")
		f.int(file.ResidentPages())
		f.str(":")
		file.ForEachPage(func(idx int, frame arch.FrameNum) {
			f.str(" ")
			f.int(idx)
			f.str("=")
			f.uint(uint64(frame))
			f.spill()
		})
		f.endLine()
	}

	for i := 0; i < k.NumCPUs(); i++ {
		c := k.CPUAt(i)
		iv, ig := c.MicroI.Occupancy()
		dv, dg := c.MicroD.Occupancy()
		mv, mg := c.Main.Occupancy()
		f.printf("cpu%d now=%d micro-i=%d/%d micro-d=%d/%d main=%d/%d l1i=%d l1d=%d\n",
			i, c.Now(), iv, ig, dv, dg, mv, mg,
			c.Caches.L1I.Occupancy(), c.Caches.L1D.Occupancy())
	}
	f.printf("l2=%d\n", k.CPUAt(0).Caches.L2.Occupancy())

	reg := obs.NewRegistry()
	reg.MustRegister(k.Sources()...)
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var keys []string
	for _, name := range names {
		m := snap[name]
		keys = keys[:0]
		for key := range m {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		f.str("src ")
		f.str(name)
		f.str(":")
		for _, key := range keys {
			f.str(" ")
			f.str(key)
			f.str("=")
			f.uint(m[key])
		}
		f.endLine()
	}
	f.flush()
	return f.err
}
