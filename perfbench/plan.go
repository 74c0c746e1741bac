package main

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/workload"
)

// opKind is one kind of operation a cell runs on its forked machine.
type opKind uint8

const (
	// opSteady is LaunchApp → App.Run → Exit (Figures 10–12).
	opSteady opKind = iota
	// opLaunch is LaunchApp → Exit (Figures 7–9, Table 4).
	opLaunch
	// opFork is a bare ZygoteFork → Exit (Table 4's fork cost).
	opFork
	// opBinder is one RunBinder call, then Exit of both endpoints
	// (Figure 13).
	opBinder
)

func (k opKind) String() string {
	return [...]string{"steady", "launch", "fork", "binder"}[k]
}

// op is one generated operation. App indexes workload.Suite().
type op struct {
	Kind    opKind
	App     int
	RunSeed int64
	Iters   int
	ASID    bool
}

// cell is one forked machine and the ops run on it, in order.
type cell struct {
	Arch   string
	Kernel core.Config
	Layout android.Layout
	Ops    []op
}

// plan is one round of a workload: every cell once, in seeded order.
// The timed pass repeats rounds until its time is up; the traced pass
// runs TracedRounds rounds, a fixed amount of work (chosen as about ten
// seconds on a 2-vCPU x86-64 VM), so that its per-layer self times
// compare across commits.
type plan struct {
	Workload     string
	Cells        []cell
	TracedRounds int
}

// Workload shape. Every round covers each configuration and each suite
// app the same number of times, so the seed changes the order, the
// pairing of apps with cells, the launch run seeds and the Binder
// iteration order, but not how much work a round holds; that keeps the
// per-run figures comparable across seeds.
const (
	steadyRunsPerCell = 2 // the zygote persists across a cell's runs
	// launchForksPerCell bare forks are interleaved with a cell's 11
	// launches. At its default parameters the experiments CLI forks 40
	// times per kernel for Table 4 (the paper's 40 rounds) against 100
	// launches per configuration for Figures 7–9; 11 × 40/100 = 4.4.
	launchForksPerCell = 4
)

// binderIters is the ladder of Binder call counts each binder cell
// runs, in a seeded order. It is centred on the 4000 calls of the
// experiments CLI's -quick Figure 13, so that the fixed cost of each
// RunBinder (two zygote forks, the private maps, the warm-up and two
// exits) weighs about as much as it does there.
var binderIters = []int{3000, 3500, 4000, 4500, 5000}

var (
	steadyKernels = []core.Config{core.Stock(), core.SharedPTP()}
	launchKernels = []core.Config{core.Stock(), core.CopiedPTEs(), core.SharedPTP(), core.SharedPTPTLB()}
	binderKernels = []core.Config{core.Stock(), core.SharedPTPTLB()}
	layouts       = []android.Layout{android.LayoutOriginal, android.Layout2MB}
	arches        = []string{"armv7", "sv39"}
)

// workloads lists the workload names in the order BENCHMARK.json does.
var workloads = []string{"steady", "launch", "binder"}

// newPlan generates workload w's round from seed. Equal seeds give equal
// plans; the simulator only ever sees the generated ops.
func newPlan(w string, seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	nApps := len(workload.Suite())
	p := &plan{Workload: w}
	switch w {
	case "steady":
		p.TracedRounds = 2
		for _, k := range steadyKernels {
			for _, l := range layouts {
				for _, app := range rng.Perm(nApps) {
					c := cell{Arch: "armv7", Kernel: k, Layout: l}
					for i := 0; i < steadyRunsPerCell; i++ {
						c.Ops = append(c.Ops, op{Kind: opSteady, App: app, RunSeed: rng.Int63n(1 << 20)})
					}
					p.Cells = append(p.Cells, c)
				}
			}
		}
	case "launch":
		p.TracedRounds = 4
		for _, a := range arches {
			for _, k := range launchKernels {
				for _, l := range layouts {
					c := cell{Arch: a, Kernel: k, Layout: l}
					for _, app := range rng.Perm(nApps) {
						c.Ops = append(c.Ops, op{Kind: opLaunch, App: app, RunSeed: rng.Int63n(1 << 20)})
					}
					for i := 0; i < launchForksPerCell; i++ {
						c.Ops = append(c.Ops, op{Kind: opFork})
					}
					rng.Shuffle(len(c.Ops), func(i, j int) { c.Ops[i], c.Ops[j] = c.Ops[j], c.Ops[i] })
					p.Cells = append(p.Cells, c)
				}
			}
		}
	case "binder":
		p.TracedRounds = 5
		for _, a := range arches {
			for _, k := range binderKernels {
				for _, asid := range []bool{false, true} {
					c := cell{Arch: a, Kernel: k, Layout: android.LayoutOriginal}
					for _, i := range rng.Perm(len(binderIters)) {
						c.Ops = append(c.Ops, op{Kind: opBinder, Iters: binderIters[i], ASID: asid})
					}
					p.Cells = append(p.Cells, c)
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloads)
	}
	rng.Shuffle(len(p.Cells), func(i, j int) { p.Cells[i], p.Cells[j] = p.Cells[j], p.Cells[i] })
	return p, nil
}

// numOps is the number of ops in one round.
func (p *plan) numOps() int {
	n := 0
	for _, c := range p.Cells {
		n += len(c.Ops)
	}
	return n
}
