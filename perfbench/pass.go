package main

import (
	"fmt"
	"time"
)

// passResult is what one timed or traced pass measured.
type passResult struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	OpMS      []float64 `json:"op_ms"`
	ElapsedS  float64   `json:"elapsed_s"`
	Rounds    int       `json:"rounds"`
	// FirstRound sums the counter deltas of the first round's cells.
	FirstRound counters `json:"first_round"`
	// RoundS is each round's host time in seconds.
	RoundS []float64 `json:"round_s"`
}

// maxErrors bounds how many failure messages a pass keeps.
const maxErrors = 5

// fail records n failed ops.
func (r *passResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// runPass runs whole rounds of p, forking each cell's image from the
// set-up cache, until at least seconds have passed, minOps ops have run
// and minRounds rounds are done. Whole rounds keep the measured work the
// same multiset of ops for every seed. Every op's digest and every
// cell's counter delta is checked against ref.
func runPass(e *env, p *plan, ref *reference, r *runner, seconds float64, minOps, minRounds int) passResult {
	tr := r.tr
	res := passResult{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	opID := 0
	for res.Attempted < minOps || res.Rounds < minRounds || time.Now().Before(deadline) {
		roundStart := time.Now()
		round := counters{}
		for ci := range p.Cells {
			c := &p.Cells[ci]
			cs := tr.begin("cell", -1, -1)
			delta, failed := runCellChecked(e, r, c, cs, opID, ref, ci, &res)
			tr.end(cs)
			opID += len(c.Ops)
			if delta == nil {
				continue
			}
			if delta.digest() != ref.Cells[ci] {
				// The cell's counters as a whole differ: every op in it
				// that has not failed already fails now.
				res.fail(len(c.Ops)-failed, "round %d cell %d: counter delta differs from the reference", res.Rounds, ci)
			}
			round.add("", delta)
		}
		if res.Rounds == 0 {
			res.FirstRound = round
		}
		res.Rounds++
		res.RoundS = append(res.RoundS, time.Since(roundStart).Seconds())
	}
	res.ElapsedS = time.Since(start).Seconds()
	return res
}

// runCellChecked forks cell ci's image and runs its ops, checking each
// against ref. It returns the cell's counter delta (nil if the cell
// could not run to its end) and how many of its ops failed.
func runCellChecked(e *env, r *runner, c *cell, cs, opID int, ref *reference, ci int, res *passResult) (counters, int) {
	img, err := e.image(c, cs, r.tr)
	if err != nil {
		res.Attempted += len(c.Ops)
		res.fail(len(c.Ops), "round %d cell %d: image: %v", res.Rounds, ci, err)
		return nil, len(c.Ops)
	}
	fs := r.tr.begin("checkpoint.fork", cs, -1)
	sys := img.Fork()
	r.tr.end(fs)
	failed := 0
	delta := r.runCell(sys, c, cs, opID, func(i int, o opResult) {
		res.Attempted++
		res.OpMS = append(res.OpMS, ms(o.dur))
		switch {
		case o.err != nil:
			failed++
			res.fail(1, "round %d cell %d op %d: %v", res.Rounds, ci, i, o.err)
		case o.digest != ref.Ops[ci][i]:
			failed++
			res.fail(1, "round %d cell %d op %d: counters differ from the reference", res.Rounds, ci, i)
		}
	})
	return delta, failed
}
