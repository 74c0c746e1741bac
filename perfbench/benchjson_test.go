package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesOutput checks that the metrics the program
// prints are the ones BENCHMARK.json declares, with the same units, and
// that record.json names a target for every per-layer metric.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}

	pass := func() *passResult {
		return &passResult{Attempted: 1, ElapsedS: 1, OpMS: []float64{1}, Rounds: 1, FirstRound: counters{}, RoundS: []float64{1}}
	}
	timed := &childResult{Pass: pass()}
	traced := &childResult{Pass: pass()}
	compare(t, "end_to_end", doc.EndToEnd, endToEnd([]float64{1}, timed))
	layer := perLayer(fillStats{}, timed, traced, selfTimes{})
	compare(t, "per_layer", doc.PerLayer, layer)

	rec := readRecord(t)
	for name := range layer {
		if rec.LayerTargets[name] == "" {
			t.Errorf("record.json names no end-to-end target for %s", name)
		}
	}
	for name := range rec.LayerTargets {
		if _, ok := layer[name]; !ok {
			t.Errorf("record.json maps %s, which the program does not report", name)
		}
	}
}

func compare(t *testing.T, section string, declared []benchMetric, got map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range declared {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is declared but not reported", section, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s reported in %s, declared in %s", section, m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: reported but not declared: %v", section, extra)
	}
}
