// The fingerprint renderer's differential test. referenceFingerprint is
// the original fmt-based renderer, kept verbatim as the definition of
// the fingerprint text: every digest in a stored image file hashes this
// text, so the streaming renderer in fingerprint.go must reproduce it
// byte for byte on every kind of machine the simulator builds.
//
// Do not optimize referenceFingerprint: its value is that it is the
// obvious, slow, format-defining implementation.

package checkpoint_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/imagestore"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"

	_ "repro/internal/arch/sv39"
)

func referenceFingerprint(img *checkpoint.Image) string {
	sys := img.Proto()
	k := sys.Kernel
	var b strings.Builder

	fmt.Fprintf(&b, "counters=%+v\n", k.Counters)
	ps := k.Phys.Stats()
	fmt.Fprintf(&b, "phys alloc=%d freed=%d inuse=%d kinds=", ps.Allocated, ps.Freed, ps.InUse)
	kinds := make([]int, 0, len(ps.ByKind))
	for kind := range ps.ByKind {
		kinds = append(kinds, int(kind))
	}
	sort.Ints(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(&b, "%d:%d,", kind, ps.ByKind[mem.FrameKind(kind)])
	}
	fmt.Fprintf(&b, "\nsharing=%+v\n", k.SharingStats())

	for _, p := range k.Processes() {
		fmt.Fprintf(&b, "proc %d %q zygote=%v child=%v alive=%v forkstats=%+v ptescopied=%d\n",
			p.PID, p.Name, p.IsZygote, p.IsZygoteChild, p.Alive(), p.ForkStats, p.PTEsCopied)
		fmt.Fprintf(&b, "  ctx asid=%d dacr=%#x stats=%+v\n", p.Ctx.ASID, p.Ctx.DACR, p.Ctx.Stats)
		fmt.Fprintf(&b, "  mm counters=%+v ptstats=%+v\n", p.MM.Counters, p.MM.PT.Stats())
		for _, v := range p.MM.VMAs() {
			name := ""
			if v.File != nil {
				name = v.File.Name
			}
			fmt.Fprintf(&b, "  vma %#x-%#x prot=%v flags=%d file=%q off=%d name=%q cat=%d\n",
				v.Start, v.End, v.Prot, v.Flags, name, v.FileOff, v.Name, v.Category)
		}
		for idx := 0; idx < p.MM.PT.NumSlots(); idx++ {
			e := p.MM.PT.Slot(idx)
			if !e.Valid() {
				continue
			}
			fmt.Fprintf(&b, "  l1[%d] frame=%d domain=%d needcopy=%v pop=%d:",
				idx, e.Table.Frame, e.Domain, e.NeedCopy, e.Table.Populated())
			for i := 0; i < e.Table.Len(); i++ {
				if pte := e.Table.PTE(i); pte.Valid() {
					fmt.Fprintf(&b, " %d=%d/%d/%d", i, pte.Frame, pte.Flags, pte.Soft)
				}
			}
			b.WriteByte('\n')
		}
	}

	for _, f := range sys.Files() {
		if f == nil {
			continue
		}
		fmt.Fprintf(&b, "file %q size=%d resident=%d:", f.Name, f.Size, f.ResidentPages())
		f.ForEachPage(func(idx int, frame arch.FrameNum) {
			fmt.Fprintf(&b, " %d=%d", idx, frame)
		})
		b.WriteByte('\n')
	}

	for i := 0; i < k.NumCPUs(); i++ {
		c := k.CPUAt(i)
		iv, ig := c.MicroI.Occupancy()
		dv, dg := c.MicroD.Occupancy()
		mv, mg := c.Main.Occupancy()
		fmt.Fprintf(&b, "cpu%d now=%d micro-i=%d/%d micro-d=%d/%d main=%d/%d l1i=%d l1d=%d\n",
			i, c.Now(), iv, ig, dv, dg, mv, mg,
			c.Caches.L1I.Occupancy(), c.Caches.L1D.Occupancy())
	}
	fmt.Fprintf(&b, "l2=%d\n", k.CPUAt(0).Caches.L2.Occupancy())

	reg := obs.NewRegistry()
	reg.MustRegister(k.Sources()...)
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := snap[name]
		keys := make([]string, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "src %s:", name)
		for _, key := range keys {
			fmt.Fprintf(&b, " %s=%d", key, m[key])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func checkMatchesReference(t *testing.T, name string, img *checkpoint.Image) {
	t.Helper()
	want := referenceFingerprint(img)
	if got := img.Fingerprint(); got != want {
		t.Fatalf("%s: fingerprint differs from the reference renderer at byte %d of %d",
			name, firstDiff(got, want), len(want))
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func boot(t *testing.T, cfg core.Config, layout android.Layout, archName string) *android.System {
	t.Helper()
	sys, err := android.BootOpts(cfg, layout, workload.DefaultUniverse(), android.Options{Arch: archName})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runApp launches, runs and exits the suite's first app.
func runApp(sys *android.System) error {
	prof := workload.BuildProfile(sys.Universe, workload.Suite()[0])
	app, _, err := sys.LaunchApp(prof, 1)
	if err != nil {
		return err
	}
	if _, err := app.Run(); err != nil {
		return err
	}
	sys.Kernel.Exit(app.Proc)
	return nil
}

func TestFingerprintMatchesReferenceOnBoots(t *testing.T) {
	kernels := []struct {
		name string
		cfg  core.Config
	}{
		{"stock", core.Stock()},
		{"copied-ptes", core.CopiedPTEs()},
		{"shared-ptp", core.SharedPTP()},
		{"shared-tlb", core.SharedPTPTLB()},
	}
	for _, archName := range []string{"armv7", "sv39"} {
		for _, k := range kernels {
			for _, layout := range []android.Layout{android.LayoutOriginal, android.Layout2MB} {
				name := archName + "/" + k.name + "/" + layout.String()
				checkMatchesReference(t, name, checkpoint.Capture(boot(t, k.cfg, layout, archName)))
			}
		}
	}
}

func TestFingerprintMatchesReferenceAfterRun(t *testing.T) {
	for _, archName := range []string{"armv7", "sv39"} {
		sys := boot(t, core.SharedPTPTLB(), android.LayoutOriginal, archName)
		if err := runApp(sys); err != nil {
			t.Fatal(err)
		}
		checkMatchesReference(t, archName+"/after-run", checkpoint.Capture(sys))
	}
}

func TestFingerprintMatchesReferenceOnDerivedImage(t *testing.T) {
	c := checkpoint.NewCache()
	base := func() (*checkpoint.Image, error) {
		return c.Image("base", func() (*android.System, error) {
			return boot(t, core.SharedPTP(), android.LayoutOriginal, ""), nil
		})
	}
	img, err := c.Derived("base", "app", base, runApp)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesReference(t, "derived", img)
}

func TestFingerprintMatchesReferenceOnStoredImage(t *testing.T) {
	u := workload.DefaultUniverse()
	store, err := imagestore.Open(t.TempDir(), u)
	if err != nil {
		t.Fatal(err)
	}
	for _, archName := range []string{"armv7", "sv39"} {
		opts := android.Options{Arch: archName}
		key := checkpoint.Key(core.SharedPTP(), android.LayoutOriginal, u, opts)
		store.Save(key, checkpoint.Capture(boot(t, core.SharedPTP(), android.LayoutOriginal, archName)))
		img, ok := store.Load(key)
		if !ok {
			t.Fatalf("%s: store missed the image it just saved", archName)
		}
		checkMatchesReference(t, archName+"/stored", img)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("write failed")
}

// TestWriteFingerprintReportsWriteError pins that a failing destination
// surfaces its error and is not written again after failing.
func TestWriteFingerprintReportsWriteError(t *testing.T) {
	img := checkpoint.Capture(boot(t, core.SharedPTP(), android.LayoutOriginal, ""))
	w := &failWriter{}
	if err := img.WriteFingerprint(w); err == nil {
		t.Fatal("WriteFingerprint swallowed the writer's error")
	}
	if w.n != 1 {
		t.Errorf("failed writer was called %d times, want 1", w.n)
	}
}
