// Package sweep runs experiment scenario sweeps in parallel,
// deterministically. Every experiment driver in internal/experiments
// enumerates independent scenarios (kernel config x layout x application
// x run), each of which boots its own simulator instance; sweep fans them
// out over a worker pool and merges the results back in canonical input
// order, so a parallel sweep's output is byte-identical to a serial one.
//
// Determinism rules the engine enforces:
//
//   - Results are collected into a slice indexed by scenario position,
//     never by completion order.
//   - Each scenario receives its own PRNG seeded from its name (via
//     Seed), never a share of some global rand.Rand, so no scenario's
//     random stream depends on scheduling.
//   - On failure, every scenario still runs and the lowest-index error is
//     reported, so the error a caller sees does not depend on which
//     worker lost the race. A scenario that panics fails like one that
//     returns an error: the panic becomes an error naming the scenario.
package sweep

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Scenario is one independent unit of a sweep: it must not share mutable
// state with any other scenario (each boots its own simulator).
type Scenario[T any] struct {
	// Name identifies the scenario. It must be unique and stable across
	// runs: it seeds the scenario's private PRNG.
	Name string
	// Run executes the scenario. rng is private to this scenario and
	// seeded from Name; drivers that need randomness must use it (or
	// derive their own seeds from scenario identity) rather than any
	// shared source.
	Run func(rng *rand.Rand) (T, error)
}

// Seed derives a deterministic PRNG seed from scenario identity parts.
func Seed(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64() &^ (1 << 63))
}

// Workers resolves a worker-count request: n >= 1 is used as given, and
// anything else selects GOMAXPROCS.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runOne executes one scenario on its private PRNG. A panic is
// recovered into an error that names the scenario and carries the
// panicking goroutine's stack, so one crashing scenario neither kills
// the process nor stops the rest of the sweep.
func runOne[T any](sc Scenario[T]) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			res, err = zero, fmt.Errorf("sweep: scenario %q panicked: %v\n%s", sc.Name, r, debug.Stack())
		}
	}()
	return sc.Run(rand.New(rand.NewSource(Seed(sc.Name))))
}

// Run executes the scenarios on min(workers, len(scenarios)) goroutines
// and returns their results in input order regardless of completion
// order. All scenarios run even if one fails or panics (scenario counts
// are small and failures exceptional); the returned error is the failing
// scenario's with the lowest index, independent of scheduling.
func Run[T any](workers int, scenarios []Scenario[T]) ([]T, error) {
	n := len(scenarios)
	if n == 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	if workers == 1 {
		for i, sc := range scenarios {
			results[i], errs[i] = runOne(sc)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = runOne(scenarios[i])
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Pair runs a baseline/variant measurement pair as a two-scenario sweep:
// the common shape of the ablation and comparison studies.
func Pair[T any](workers int, name string, f func(variant bool) (T, error)) (base, variant T, err error) {
	res, err := Run(workers, []Scenario[T]{
		{Name: name + "/baseline", Run: func(*rand.Rand) (T, error) { return f(false) }},
		{Name: name + "/variant", Run: func(*rand.Rand) (T, error) { return f(true) }},
	})
	if err != nil {
		var zero T
		return zero, zero, err
	}
	return res[0], res[1], nil
}
