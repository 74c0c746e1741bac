// Command perfbench is the repository's benchmark. It drives the
// simulator in-process through its public packages over one of three
// seeded traffic mixes — steady (Figures 10–12), launch (Figures 7–9,
// Table 4) and binder (Figure 13) — and prints one JSON line of
// end-to-end metrics, or of per-layer metrics with -trace 1.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 25 --trace 0
//
// One invocation runs several processes of this binary in sequence, so
// each measured process starts clean: this parent fills a private image
// store and replays one round on the exact path as the reference;
// set-up probes time the warm start; the timed child measures the
// untraced pass; with -trace 1 a traced child records spans and a CPU
// profile. Load comes from one goroutine; nothing queues, so there is no
// wait-time metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	// The MMU backends the workloads boot register themselves.
	_ "repro/internal/arch/armv7"
	_ "repro/internal/arch/sv39"
)

// defaultSeed is used when -seed is not given.
const defaultSeed = 1

// setupProbes is how many extra processes time set-up alone; with the
// timed child's own set-up they give the median setup_s. Each process
// loads every image once, as the CLIs do, so more samples mean more
// processes.
const setupProbes = 14

// workRoot holds everything an invocation writes, under the directory
// it runs in.
const workRoot = ".perfbench"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	phase    string
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: steady, launch or binder")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 25, "least length of the measured pass in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a separate traced pass")
	flag.StringVar(&o.phase, "phase", "", "internal: child process phase (setup, timed, traced)")
	flag.StringVar(&o.dir, "dir", "", "internal: the invocation's work directory")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	p, err := newPlan(o.workload, o.seed)
	if err != nil {
		return err
	}
	if o.phase != "" {
		return runChild(o, p)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return orchestrate(ctx, o, p, dir)
}

// childResult is what a child process reports on its standard output.
type childResult struct {
	SetupS     float64              `json:"setup_s"`
	ImageCalls int                  `json:"image_calls"`
	ImageBoots int                  `json:"image_boots"`
	Loads      int                  `json:"loads"`
	LoadHits   int                  `json:"load_hits"`
	MappedMB   float64              `json:"mapped_mb"`
	Pass       *passResult          `json:"pass,omitempty"`
	CPUS       float64              `json:"cpu_s"`
	AllocMB    float64              `json:"alloc_mb"`
	MaxRSSMB   float64              `json:"max_rss_mb"`
	Spans      map[string]spanStats `json:"spans,omitempty"`
}

func storeDir(dir string) string { return filepath.Join(dir, "store") }

// traceDir keeps the last traced run's spans and CPU profile.
func traceDir(workload string) string { return filepath.Join(workRoot, "trace-"+workload) }

// runChild runs one measured phase in this process.
func runChild(o options, p *plan) error {
	var ref reference
	if o.phase != "setup" {
		b, err := os.ReadFile(filepath.Join(o.dir, "reference.json"))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &ref); err != nil {
			return err
		}
	}
	var tr *tracer
	var profile *os.File
	if o.phase == "traced" {
		var err error
		if profile, err = os.Create(filepath.Join(traceDir(o.workload), "cpu.pprof")); err != nil {
			return err
		}
		defer profile.Close()
		if err := pprof.StartCPUProfile(profile); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
		tr = newTracer()
	}
	t0 := time.Now()
	e, err := setup(storeDir(o.dir), p, tr)
	if err != nil {
		return err
	}
	res := childResult{
		SetupS:     time.Since(t0).Seconds(),
		ImageCalls: e.imageCalls, ImageBoots: e.imageBoots,
		Loads: e.store.loads, LoadHits: e.store.hits, MappedMB: e.mappedMB,
	}
	switch o.phase {
	case "setup":
	case "timed", "traced":
		// Set-up garbage is collected before the pass, not during it.
		runtime.GC()
		r := &runner{profiles: e.profiles, tr: tr}
		u0 := readUsage()
		var pass passResult
		if tr == nil {
			pass = runPass(e, p, &ref, r, float64(o.seconds), minOpsFor(90), 0)
		} else {
			pass = runPass(e, p, &ref, r, 0, 0, p.TracedRounds)
		}
		u := readUsage().since(u0)
		res.Pass = &pass
		res.CPUS = u.cpu.Seconds()
		res.AllocMB = float64(u.alloc) / (1 << 20)
		res.MaxRSSMB = float64(u.maxRSSKB) / 1024
		res.ImageCalls, res.ImageBoots = e.imageCalls, e.imageBoots
		res.Loads, res.LoadHits = e.store.loads, e.store.hits
		if tr != nil {
			pprof.StopCPUProfile()
			if err := profile.Close(); err != nil {
				return err
			}
			res.Spans = tr.summary()
			if err := tr.write(filepath.Join(traceDir(o.workload), "spans.json")); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown phase %q", o.phase)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs this binary as a child in phase and decodes its result.
func spawn(ctx context.Context, o options, dir, phase string) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-phase", phase, "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", phase, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child: %w", phase, err)
	}
	return &res, nil
}

// orchestrate prepares the store and the reference, runs the children
// and prints the result line.
func orchestrate(ctx context.Context, o options, p *plan, dir string) error {
	t0 := time.Now()
	fill, err := fillStore(storeDir(dir), p)
	if err != nil {
		return fmt.Errorf("fill store: %w", err)
	}
	ref, err := referencePass(p)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "reference.json"), b, 0o644); err != nil {
		return err
	}
	prepS := time.Since(t0).Seconds()
	// The parent's boots are garbage now; hand the memory back before
	// the measured children run beside it.
	refTotals := ref.Totals.digest()
	ref = nil
	debug.FreeOSMemory()

	var setups []float64
	if o.trace == 0 {
		for i := 0; i < setupProbes; i++ {
			c, err := spawn(ctx, o, dir, "setup")
			if err != nil {
				return err
			}
			setups = append(setups, c.SetupS)
		}
	}
	timed, err := spawn(ctx, o, dir, "timed")
	if err != nil {
		return err
	}
	setups = append(setups, timed.SetupS)
	var traced *childResult
	if o.trace == 1 {
		if err := os.MkdirAll(traceDir(o.workload), 0o755); err != nil {
			return err
		}
		if traced, err = spawn(ctx, o, dir, "traced"); err != nil {
			return err
		}
	}
	out, err := report(ctx, o, fill, refTotals, setups, timed, traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: prepare %.1fs, total %.1fs\n",
		o.workload, o.seed, prepS, time.Since(t0).Seconds())
	b, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
