package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// layers are the packages of repro/internal whose self time is reported
// by name; other module packages count under "other". Subpackages
// (arch/armv7, arch/sv39) belong to their parent.
var layers = []string{
	"cache", "tlb", "cpu", "pagetable", "core", "vm", "mem", "arch",
	"android", "workload", "checkpoint", "imagestore", "alloc", "obs",
}

// Attribution groups, named as the per-layer metrics that report them:
// each layer's "<layer>.self_s", and these for samples in no layer.
const (
	groupGC      = "runtime.gc_s"
	groupRuntime = "runtime.other_s"
	groupBench   = "bench.self_s"
	groupOther   = "other.self_s"
)

// groups lists every attribution group.
func groups() []string {
	var out []string
	for _, l := range layers {
		out = append(out, l+".self_s")
	}
	return append(out, groupBench, groupOther, groupGC, groupRuntime)
}

// funcPackage returns the import path of the package defining the Go
// function symbol sym, as pprof prints it: "repro/internal/cache.(*Cache).probe",
// closures "pkg.F.func1", generic instantiations "pkg.(*T[go.shape.int]).M",
// whose type arguments may themselves hold dots and slashes.
func funcPackage(sym string) string {
	sym = strings.TrimSuffix(sym, " (inline)")
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// isGCFrame reports whether a frame belongs to the garbage collector:
// background mark and sweep workers, mark assists, the scavenger, and
// the write barrier's slow path.
func isGCFrame(sym string) bool {
	sym = strings.TrimSuffix(sym, " (inline)")
	if strings.HasPrefix(sym, "runtime.gc") || strings.HasPrefix(sym, "runtime.bgs") {
		return true
	}
	switch sym {
	case "runtime.GC", "runtime.markroot", "runtime.scanobject", "runtime.sweepone",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.deductSweepCredit",
		"runtime.wbBufFlush", "runtime.bulkBarrierPreWrite":
		return true
	}
	return false
}

// attribute names the group a sample's self time belongs to, from its
// stack, leaf first. Inlined frames are frames of their own in pprof's
// output, so the leaf is the innermost inlined function.
func attribute(stack []string) string {
	if len(stack) == 0 {
		return groupOther
	}
	pkg := funcPackage(stack[0])
	switch {
	case isRuntime(pkg):
		for _, f := range stack {
			if isGCFrame(f) {
				return groupGC
			}
		}
		return groupRuntime
	case pkg == "main":
		return groupBench
	case strings.HasPrefix(pkg, "repro/internal/"):
		top, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		for _, l := range layers {
			if l == top {
				return l + ".self_s"
			}
		}
	}
	return groupOther
}

// selfTimes is the CPU profile's sample time per attribution group,
// plus the profile's own total.
type selfTimes struct {
	Groups map[string]time.Duration
	Total  time.Duration // "Total samples" from the profile header
}

// parseTraces reads `go tool pprof -traces` output.
func parseTraces(r io.Reader) (selfTimes, error) {
	st := selfTimes{Groups: map[string]time.Duration{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		stack []string
		value time.Duration
		total time.Duration = -1
	)
	flush := func() {
		if len(stack) > 0 {
			st.Groups[attribute(stack)] += value
		}
		stack = stack[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case strings.Contains(line, "Total samples = "):
			_, rest, _ := strings.Cut(line, "Total samples = ")
			f := strings.Fields(rest)
			if len(f) == 0 {
				return st, fmt.Errorf("malformed pprof header %q", line)
			}
			v, err := parseDuration(f[0])
			if err != nil {
				return st, err
			}
			total = v
		case len(stack) == 0 && strings.HasPrefix(line, " ") && len(strings.Fields(line)) >= 2:
			f := strings.Fields(line)
			v, err := parseDuration(f[0])
			if err != nil {
				continue // a header line
			}
			value = v
			stack = append(stack, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0])))
		case len(stack) > 0 && strings.TrimSpace(line) != "":
			stack = append(stack, strings.TrimSpace(line))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return st, err
	}
	if total < 0 {
		return st, fmt.Errorf("pprof output has no sample total")
	}
	st.Total = total
	return st, nil
}

// parseDuration parses pprof's sample values ("10ms", "1.23s", "2mins").
func parseDuration(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}, {"ms", time.Millisecond}, {"us", time.Microsecond},
		{"µs", time.Microsecond}, {"ns", time.Nanosecond}, {"s", time.Second}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(math.Round(v * float64(u.scale))), nil
		}
	}
	return 0, fmt.Errorf("not a pprof duration: %q", s)
}

// profileSelfTimes aggregates a CPU profile with `go tool pprof`.
func profileSelfTimes(ctx context.Context, path string) (selfTimes, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return selfTimes{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}
