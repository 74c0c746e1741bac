package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// record is perfbench/record.json: the seeds, the reasons and the
// default seed's simulated counts kept beside BENCHMARK.json.
type record struct {
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	LayerTargets map[string]string             `json:"layer_targets"`
	SimCounts    map[string]map[string]float64 `json:"default_seed_sim_counts"`
}

func readRecord(t *testing.T) record {
	t.Helper()
	b, err := os.ReadFile("record.json")
	if err != nil {
		t.Fatal(err)
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSeedsChooseThePlan(t *testing.T) {
	r := readRecord(t)
	if r.Seeds.Default != defaultSeed {
		t.Fatalf("record.json default seed %d, program default %d", r.Seeds.Default, defaultSeed)
	}
	if r.Seeds.HeldOut == r.Seeds.Default {
		t.Fatal("the held-out seed equals the default seed")
	}
	for _, w := range workloads {
		a, err := newPlan(w, r.Seeds.Default)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, r.Seeds.Default)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different plans", w)
		}
		c, _ := newPlan(w, r.Seeds.HeldOut)
		if reflect.DeepEqual(a.Cells, c.Cells) {
			t.Errorf("%s: seeds %d and %d gave the same plan", w, r.Seeds.Default, r.Seeds.HeldOut)
		}
	}
	if _, err := newPlan("nope", 1); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestRoundsHoldTheSameWork pins the balance that keeps figures
// comparable across seeds: a round's configurations, apps, op kinds
// and Binder call counts are the same multiset for every seed.
func TestRoundsHoldTheSameWork(t *testing.T) {
	type key struct {
		arch, kernel string
		layout       int
		kind         opKind
		app, iters   int
		asid         bool
	}
	census := func(p *plan) map[key]int {
		m := map[key]int{}
		for _, c := range p.Cells {
			for _, o := range c.Ops {
				m[key{c.Arch, c.Kernel.Name(), int(c.Layout), o.Kind, o.App, o.Iters, o.ASID}]++
			}
		}
		return m
	}
	want := map[string]int{
		"steady": 2 * 2 * len(workload.Suite()) * steadyRunsPerCell,
		"launch": 2 * 4 * 2 * (len(workload.Suite()) + launchForksPerCell),
		"binder": 2 * 2 * 2 * len(binderIters),
	}
	for _, w := range workloads {
		a, _ := newPlan(w, 1)
		b, _ := newPlan(w, 2)
		if a.numOps() != want[w] {
			t.Errorf("%s: %d ops per round, want %d", w, a.numOps(), want[w])
		}
		if !reflect.DeepEqual(census(a), census(b)) {
			t.Errorf("%s: seeds 1 and 2 hold different work", w)
		}
	}
}

// TestRecordedSimCounts replays the default seed's round of every
// workload on the exact path and compares its simulated counts with the
// ones record.json holds, so model drift shows as a failure here. A
// change that moves the model on purpose updates record.json.
func TestRecordedSimCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload's round")
	}
	rec := readRecord(t)
	for _, w := range workloads {
		p, _ := newPlan(w, rec.Seeds.Default)
		ref, err := referencePass(p)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for k, m := range simMetrics(ref.Totals) {
			got[k] = m.Value
		}
		if !reflect.DeepEqual(got, rec.SimCounts[w]) {
			b, _ := json.Marshal(got)
			t.Errorf("%s: simulated counts drifted from record.json; now %s", w, b)
		}
	}
}
