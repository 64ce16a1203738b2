package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one traced call into a layer: its name, its interval relative to
// the tracer's start, and the span that caused it (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced replay runs the same code. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// selfTimes returns, per span name, the self time of each span with that
// name in recording order: its duration minus the part of it that its
// child spans cover. Children of one span never overlap (the replay is
// sequential), so covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string][]time.Duration {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[i])
	}
	return out
}

// medianSelfMS is the median self time in milliseconds of the spans named
// name; 0 when the run recorded none.
func medianSelfMS(self map[string][]time.Duration, name string) float64 {
	ds := self[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// write stores the spans under .bench_build/traces/ in the checkout.
func (t *tracer) write(workload string, seed int64) (string, error) {
	if t == nil {
		return "", nil
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+strconv.FormatInt(seed, 10)+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// counterDelta returns after − before for every counter in after.
func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
