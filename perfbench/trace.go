package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Parent indexes the
// tracer's span list (-1 for a root); Op is the op id the span belongs
// to (-1 outside ops). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// spanStats is the call count and mean duration of one span name.
type spanStats struct {
	Calls  int     `json:"calls"`
	MeanMS float64 `json:"mean_ms"`
}

// summary aggregates the spans by name.
func (t *tracer) summary() map[string]spanStats {
	total := map[string]int64{}
	out := map[string]spanStats{}
	for _, s := range t.spans {
		total[s.Name] += s.End - s.Start
		st := out[s.Name]
		st.Calls++
		out[s.Name] = st
	}
	for name, st := range out {
		st.MeanMS = float64(total[name]) / float64(st.Calls) / 1e6
		out[name] = st
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
