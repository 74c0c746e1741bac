package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestRunPreservesInputOrder(t *testing.T) {
	const n = 64
	scenarios := make([]Scenario[int], n)
	for i := 0; i < n; i++ {
		i := i
		scenarios[i] = Scenario[int]{
			Name: fmt.Sprintf("s%d", i),
			Run:  func(*rand.Rand) (int, error) { return i * i, nil },
		}
	}
	for _, workers := range []int{1, 2, 4, 16, 100} {
		got, err := Run(workers, scenarios)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunSerialParallelIdentical(t *testing.T) {
	// The per-scenario PRNG streams must not depend on scheduling: the
	// same sweep run serially and with 4 workers yields identical draws.
	mk := func() []Scenario[[]int] {
		scenarios := make([]Scenario[[]int], 12)
		for i := range scenarios {
			scenarios[i] = Scenario[[]int]{
				Name: fmt.Sprintf("draw/%d", i),
				Run: func(rng *rand.Rand) ([]int, error) {
					out := make([]int, 8)
					for j := range out {
						out[j] = rng.Intn(1 << 20)
					}
					return out, nil
				},
			}
		}
		return scenarios
	}
	serial, err := Run(1, mk())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(4, mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("scenario %d draw %d: serial %d vs parallel %d",
					i, j, serial[i][j], parallel[i][j])
			}
		}
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	scenarios := []Scenario[int]{
		{Name: "a", Run: func(*rand.Rand) (int, error) { return 0, nil }},
		{Name: "b", Run: func(*rand.Rand) (int, error) { return 0, errLow }},
		{Name: "c", Run: func(*rand.Rand) (int, error) { return 0, nil }},
		{Name: "d", Run: func(*rand.Rand) (int, error) { return 0, errHigh }},
	}
	for _, workers := range []int{1, 4} {
		_, err := Run(workers, scenarios)
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

func TestRunAllScenariosExecute(t *testing.T) {
	// Even with an early failure, every scenario runs (so error identity
	// never depends on scheduling).
	var mu sync.Mutex
	ran := map[string]bool{}
	scenarios := make([]Scenario[int], 8)
	for i := range scenarios {
		name := fmt.Sprintf("s%d", i)
		fail := i == 0
		scenarios[i] = Scenario[int]{Name: name, Run: func(*rand.Rand) (int, error) {
			mu.Lock()
			ran[name] = true
			mu.Unlock()
			if fail {
				return 0, errors.New("boom")
			}
			return 0, nil
		}}
	}
	if _, err := Run(4, scenarios); err == nil {
		t.Fatal("want error")
	}
	if len(ran) != len(scenarios) {
		t.Fatalf("ran %d of %d scenarios", len(ran), len(scenarios))
	}
}

func TestSeedStableAndDistinct(t *testing.T) {
	if Seed("a", "b") != Seed("a", "b") {
		t.Error("Seed not stable")
	}
	if Seed("a", "b") == Seed("ab") || Seed("a", "b") == Seed("b", "a") {
		t.Error("Seed ignores part boundaries or order")
	}
	if Seed("x") < 0 {
		t.Error("Seed must be non-negative for rand.NewSource")
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("default worker count must be at least 1")
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run[int](4, nil)
	if err != nil || got != nil {
		t.Fatalf("Run(nil) = %v, %v", got, err)
	}
}

func TestRunContainsPanics(t *testing.T) {
	errLater := errors.New("later")
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[string]bool{}
		mark := func(name string) {
			mu.Lock()
			ran[name] = true
			mu.Unlock()
		}
		scenarios := []Scenario[int]{
			{Name: "ok", Run: func(*rand.Rand) (int, error) { mark("ok"); return 1, nil }},
			{Name: "crash", Run: func(*rand.Rand) (int, error) {
				mark("crash")
				var m map[string]int
				m["x"] = 1 // nil-map write: a runtime panic
				return 0, nil
			}},
			{Name: "fails", Run: func(*rand.Rand) (int, error) { mark("fails"); return 0, errLater }},
			{Name: "tail", Run: func(*rand.Rand) (int, error) { mark("tail"); return 3, nil }},
		}
		_, err := Run(workers, scenarios)
		if err == nil {
			t.Fatalf("workers=%d: panicking scenario reported no error", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, `scenario "crash" panicked`) || !strings.Contains(msg, "nil map") {
			t.Errorf("workers=%d: error does not name the scenario and panic: %v", workers, msg)
		}
		if !strings.Contains(msg, "sweep_test.go") {
			t.Errorf("workers=%d: error carries no stack into the scenario: %v", workers, msg)
		}
		if len(ran) != len(scenarios) {
			t.Errorf("workers=%d: ran %d of %d scenarios after a panic", workers, len(ran), len(scenarios))
		}

		// The lowest-index rule treats a panic like any other failure: an
		// earlier returned error wins over a later panic.
		_, err = Run(workers, []Scenario[int]{scenarios[0], scenarios[2], scenarios[1]})
		if !errors.Is(err, errLater) {
			t.Errorf("workers=%d: err = %v, want the lower-index %v", workers, err, errLater)
		}
	}
}
