package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/imagestore"
	"repro/internal/obs"
	"repro/internal/workload"
)

// bootCell boots c's machine fresh: no checkpoint, no store.
func bootCell(u *workload.Universe, c *cell) (*android.System, error) {
	return android.BootOpts(c.Kernel, c.Layout, u, android.Options{Arch: c.Arch})
}

func cellKey(u *workload.Universe, c *cell) string {
	return checkpoint.Key(c.Kernel, c.Layout, u, android.Options{Arch: c.Arch})
}

// distinctCells returns the first cell of each boot image p uses, in
// plan order.
func distinctCells(u *workload.Universe, p *plan) []*cell {
	seen := map[string]bool{}
	var out []*cell
	for i := range p.Cells {
		if k := cellKey(u, &p.Cells[i]); !seen[k] {
			seen[k] = true
			out = append(out, &p.Cells[i])
		}
	}
	return out
}

func suiteProfiles(u *workload.Universe) []*workload.Profile {
	var out []*workload.Profile
	for _, spec := range workload.Suite() {
		out = append(out, workload.BuildProfile(u, spec))
	}
	return out
}

// fillStats times the steps of filling the store: what a user with a
// cold store pays once.
type fillStats struct {
	Images    int     `json:"images"`
	BootMS    float64 `json:"boot_ms"`
	CaptureMS float64 `json:"capture_ms"`
	SaveMS    float64 `json:"save_ms"`
}

// fillStore boots, captures and saves every image p uses into dir.
func fillStore(dir string, p *plan) (fillStats, error) {
	u := workload.DefaultUniverse()
	st, err := imagestore.Open(dir, u)
	if err != nil {
		return fillStats{}, fmt.Errorf("open store: %w", err)
	}
	var f fillStats
	var boot, capture, save time.Duration
	for _, c := range distinctCells(u, p) {
		t0 := time.Now()
		sys, err := bootCell(u, c)
		if err != nil {
			return fillStats{}, fmt.Errorf("boot %s: %w", cellKey(u, c), err)
		}
		t1 := time.Now()
		img := checkpoint.Capture(sys)
		t2 := time.Now()
		st.Save(cellKey(u, c), img)
		t3 := time.Now()
		boot, capture, save = boot+t1.Sub(t0), capture+t2.Sub(t1), save+t3.Sub(t2)
		f.Images++
	}
	names, err := st.List()
	if err != nil {
		return fillStats{}, err
	}
	if len(names) != f.Images {
		return fillStats{}, fmt.Errorf("store holds %d images after saving %d", len(names), f.Images)
	}
	n := float64(f.Images)
	f.BootMS, f.CaptureMS, f.SaveMS = ms(boot)/n, ms(capture)/n, ms(save)/n
	return f, nil
}

// reference is the exact-path replay of one round: per-op digests,
// per-cell counter-delta digests, and the round's counter totals.
type reference struct {
	Ops    [][]uint64 `json:"ops"`
	Cells  []uint64   `json:"cells"`
	Totals counters   `json:"totals"`
}

// exactPath turns off every fused fast path of sys's cores. A sampling
// period with no Sampler makes cpu.FetchBlock and cpu.AccessBatch take
// their scalar paths (tick does nothing without a Sampler, so no counter
// moves), and a cache-fill subscriber turns off the fused cache runs.
// The returned function removes the subscriber.
func exactPath(sys *android.System) (cancel func()) {
	for i := 0; i < sys.Kernel.NumCPUs(); i++ {
		c := sys.Kernel.CPUAt(i)
		c.SampleEvery, c.Sampler = 1, nil
	}
	return sys.Kernel.Subscribe(obs.ObserverFunc(func(obs.Event) {}), obs.EvCacheFill)
}

// referencePass replays one round of p on fresh boots with the fused
// fast paths off (see exactPath). The boots themselves run as the store
// fill's do. Any op error is fatal, since nothing can be checked against
// a reference that did not run.
func referencePass(p *plan) (*reference, error) {
	u := workload.DefaultUniverse()
	r := &runner{profiles: suiteProfiles(u)}
	ref := &reference{Totals: counters{}}
	for ci := range p.Cells {
		c := &p.Cells[ci]
		sys, err := bootCell(u, c)
		if err != nil {
			return nil, err
		}
		cancel := exactPath(sys)
		digests := make([]uint64, len(c.Ops))
		var opErr error
		delta := r.runCell(sys, c, -1, 0, func(i int, res opResult) {
			digests[i], opErr = res.digest, res.err
		})
		cancel()
		if opErr != nil {
			return nil, fmt.Errorf("reference cell %d: %w", ci, opErr)
		}
		ref.Ops = append(ref.Ops, digests)
		ref.Cells = append(ref.Cells, delta.digest())
		ref.Totals.add("", delta)
	}
	return ref, nil
}

// loadStore is the image store as set-up sees it: it counts loads and
// hits and times each load.
type loadStore struct {
	st          *imagestore.Store
	tr          *tracer
	parent      int
	loads, hits int
}

func (s *loadStore) Load(key string) (*checkpoint.Image, bool) {
	sp := s.tr.begin("imagestore.load", s.parent, -1)
	img, ok := s.st.Load(key)
	s.tr.end(sp)
	s.loads++
	if ok {
		s.hits++
	}
	return img, ok
}

// Save never runs on a filled store; a miss still writes back, as the
// CLIs' store does.
func (s *loadStore) Save(key string, img *checkpoint.Image) { s.st.Save(key, img) }

// env is the state set-up leaves for the passes.
type env struct {
	u          *workload.Universe
	profiles   []*workload.Profile
	cache      *checkpoint.Cache
	store      *loadStore
	imageCalls int
	imageBoots int
	mappedMB   float64
}

// image returns c's image through the checkpoint cache, booting only if
// neither the cache nor the store holds it.
func (e *env) image(c *cell, parent int, tr *tracer) (*checkpoint.Image, error) {
	sp := tr.begin("checkpoint.image", parent, -1)
	defer tr.end(sp)
	e.imageCalls++
	return e.cache.Image(cellKey(e.u, c), func() (*android.System, error) {
		e.imageBoots++
		return bootCell(e.u, c)
	})
}

// setup is what every run of the program pays: the universe, the
// suite's profiles, and every image p uses from the store in dir.
func setup(dir string, p *plan, tr *tracer) (*env, error) {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	sp := tr.begin("workload.universe", root, -1)
	e := &env{u: workload.DefaultUniverse()}
	tr.end(sp)
	for _, spec := range workload.Suite() {
		sp := tr.begin("workload.profile", root, -1)
		e.profiles = append(e.profiles, workload.BuildProfile(e.u, spec))
		tr.end(sp)
	}
	st, err := imagestore.Open(dir, e.u)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	e.store = &loadStore{st: st, tr: tr, parent: root}
	e.cache = checkpoint.NewCache()
	e.cache.SetStore(e.store)
	for _, c := range distinctCells(e.u, p) {
		if _, err := e.image(c, root, tr); err != nil {
			return nil, err
		}
	}
	names, err := st.List()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		fi, err := os.Stat(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		e.mappedMB += float64(fi.Size()) / (1 << 20)
	}
	return e, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
