package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/workload"
)

// counters is a flattened obs snapshot: "source.counter" → value.
type counters map[string]uint64

// snapshot flattens the current values of sources.
func snapshot(sources ...obs.Source) counters {
	reg := obs.NewRegistry()
	reg.MustRegister(sources...)
	out := counters{}
	for src, m := range reg.Snapshot() {
		for k, v := range m {
			out[src+"."+k] = v
		}
	}
	return out
}

// procSources are the per-process metric sources of p.
func procSources(p *core.Process) []obs.Source {
	return []obs.Source{cpu.ContextSource{Ctx: p.Ctx}, p.MM, p.MM.PT}
}

// machineSources are the machine-wide sources plus the zygote's own.
func machineSources(sys *android.System) []obs.Source {
	src := sys.Kernel.Sources()
	for _, s := range procSources(sys.Zygote) {
		src = append(src, obs.Prefix("zygote.", s))
	}
	return src
}

// digest hashes a canonical rendering of c.
func (c counters) digest() uint64 {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, c[k])
	}
	return h.Sum64()
}

// add accumulates every counter of d into c under prefix.
func (c counters) add(prefix string, d counters) {
	for k, v := range d {
		c[prefix+k] += v
	}
}

// runner executes cells over the suite's profiles; tr is nil on
// untraced passes.
type runner struct {
	profiles []*workload.Profile
	tr       *tracer
}

// opResult is what one op leaves behind for the correctness check.
type opResult struct {
	digest uint64
	dur    time.Duration
	err    error
}

// runCell runs c's ops on sys in order, calling done after each. It
// returns the cell's counter delta — machine sources, zygote, and the
// sum over every op's processes — or nil if an op failed with an error,
// which ends the cell.
func (r *runner) runCell(sys *android.System, c *cell, cellSpan, firstOp int, done func(i int, res opResult)) counters {
	before := snapshot(machineSources(sys)...)
	procs := counters{}
	for i := range c.Ops {
		res := r.runOp(sys, &c.Ops[i], cellSpan, firstOp+i, procs)
		done(i, res)
		if res.err != nil {
			return nil
		}
	}
	delta := snapshot(machineSources(sys)...)
	for k, v := range before {
		delta[k] -= v
	}
	delta.add("proc.", procs)
	return delta
}

// runOp runs one op and digests its returned stats and the counters of
// the processes it ran, which are also added to procs. The op's time
// covers the simulator calls and the rendering of the stats they return,
// not the counter snapshots.
func (r *runner) runOp(sys *android.System, o *op, cellSpan, opID int, procs counters) opResult {
	k := sys.Kernel
	tr := r.tr
	opSpan := tr.begin("op", cellSpan, opID)
	start := time.Now()
	var (
		stats string
		ran   []*core.Process
		err   error
	)
	switch o.Kind {
	case opSteady, opLaunch:
		prof := r.profiles[o.App]
		s := tr.begin("android.launch", opSpan, opID)
		app, ls, lerr := sys.LaunchApp(prof, o.RunSeed)
		tr.end(s)
		if err = lerr; err != nil {
			break
		}
		stats = fmt.Sprintf("%+v", ls)
		ran = []*core.Process{app.Proc}
		if o.Kind == opSteady {
			s = tr.begin("android.run", opSpan, opID)
			rs, rerr := app.Run()
			tr.end(s)
			if err = rerr; err != nil {
				break
			}
			stats += fmt.Sprintf("%+v", rs)
		}
	case opFork:
		s := tr.begin("core.fork", opSpan, opID)
		p, ferr := sys.ZygoteFork("bench-fork")
		tr.end(s)
		if err = ferr; err != nil {
			break
		}
		stats = fmt.Sprintf("%+v", p.ForkStats)
		ran = []*core.Process{p}
	case opBinder:
		s := tr.begin("android.binder", opSpan, opID)
		br, berr := sys.RunBinder(o.Iters, o.ASID)
		tr.end(s)
		if err = berr; err != nil {
			break
		}
		for _, side := range []android.BinderSide{br.Client, br.Server} {
			stats += fmt.Sprintf("%d/%d/%d;", side.ITLBStalls, side.ITLBMisses, side.Cycles)
			ran = append(ran, side.Process)
		}
	}
	for _, p := range ran {
		s := tr.begin("core.exit", opSpan, opID)
		k.Exit(p)
		tr.end(s)
	}
	dur := time.Since(start)
	tr.end(opSpan)
	if err != nil {
		return opResult{dur: dur, err: fmt.Errorf("%s op: %w", o.Kind, err)}
	}
	var b strings.Builder
	b.WriteString(stats)
	for i, p := range ran {
		c := snapshot(procSources(p)...)
		procs.add("", c)
		fmt.Fprintf(&b, "|%d:%x", i, c.digest())
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return opResult{digest: h.Sum64(), dur: dur}
}
