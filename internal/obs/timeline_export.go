package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Trace-process ids of the Chrome export: wall-clock events and simulated
// events render as separate processes so Perfetto never mixes the two time
// bases on one row.
const (
	pidWall = 1
	pidSim  = 2
)

// chromeEvent is one entry of the Chrome trace-event JSON schema (the
// subset Perfetto and chrome://tracing consume: complete slices "X",
// instants "i", counters "C", and metadata "M").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chrome converts one recorded event. ok is false for kinds the export
// skips (none today, but the schema stays closed over the known kinds).
func (t *Timeline) chrome(ev Event) (chromeEvent, bool) {
	c := chromeEvent{
		TS:  float64(ev.TS) / 1e3,
		Pid: pidWall,
		Tid: int(ev.Track),
	}
	if ev.Kind.simClock() {
		c.Pid = pidSim
	}
	switch ev.Kind {
	case EvWorkerRun:
		c.Ph, c.Name, c.Dur = "X", "u"+strconv.FormatInt(ev.Arg, 10), float64(ev.Dur)/1e3
		c.Args = map[string]any{"bytes": ev.Value}
	case EvWorkerIdle:
		c.Ph, c.Name, c.S = "i", "idle", "t"
	case EvGrant:
		c.Ph, c.Name = "C", "bw "+t.trackName(ev.Track)
		c.Args = map[string]any{"bytes_per_s": ev.Value}
	case EvTaskEnqueue:
		c.Ph, c.Name, c.S = "i", "enqueue", "t"
		c.Args = map[string]any{"items": ev.Arg}
	case EvTaskRun:
		c.Ph, c.Name, c.Dur = "X", "drain", float64(ev.Dur)/1e3
		c.Args = map[string]any{"items": ev.Arg}
	case EvQueueDepth:
		c.Ph, c.Name = "C", "pool depth"
		c.Args = map[string]any{"depth": ev.Value}
	default:
		return chromeEvent{}, false
	}
	return c, true
}

// spanTid0 is the first Chrome thread id of the span rows: past every
// track id, so span lanes never share a row with pool tracks.
const spanTid0 = maxTracks

// wallSlice is one span placed on a wall-clock row of the exports.
type wallSlice struct {
	name    string
	ts, dur int64 // ns since the timeline's epoch
	lane    int
	top     bool // outermost on its lane when placed
}

// spanLanes lays the tracer's spans out on wall-clock rows ("spans/<lane>"),
// timed against the timeline's epoch. A span joins the first lane whose
// innermost open slice is its parent and encloses it, or whose slices have
// all ended, so each row nests parents over children, as Chrome "X"
// slices must, and concurrent siblings (the fan-out's cells) get rows of
// their own.
func (t *Timeline) spanLanes(tr *Tracer) []wallSlice {
	ivs := tr.intervals()
	order := make([]int, len(ivs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return ivs[a].start.Compare(ivs[b].start) // stable: parents first
	})
	type open struct {
		end int64
		id  int
	}
	var lanes [][]open
	out := make([]wallSlice, 0, len(ivs))
	for _, id := range order {
		iv := ivs[id]
		s := wallSlice{name: iv.name, ts: iv.start.Sub(t.epoch).Nanoseconds(), dur: iv.dur.Nanoseconds()}
		end := s.ts + s.dur
		for ; s.lane < len(lanes); s.lane++ {
			st := lanes[s.lane]
			for len(st) > 0 && st[len(st)-1].end <= s.ts {
				st = st[:len(st)-1]
			}
			lanes[s.lane] = st
			if len(st) == 0 || st[len(st)-1].id == iv.parent && st[len(st)-1].end >= end {
				break
			}
		}
		if s.lane == len(lanes) {
			lanes = append(lanes, nil)
		}
		s.top = len(lanes[s.lane]) == 0
		lanes[s.lane] = append(lanes[s.lane], open{end, id})
		out = append(out, s)
	}
	return out
}

// laneName labels one span row.
func laneName(lane int) string { return "spans/" + strconv.Itoa(lane) }

// WriteChromeTrace renders the ring, plus tr's spans as wall-clock slices
// (tr may be nil), as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func (t *Timeline) WriteChromeTrace(w io.Writer, tr *Tracer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChromeTrace on nil timeline")
	}
	events := t.Events()
	spans := t.spanLanes(tr)
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(events)+len(spans)+16)}

	// Name the two processes, and each thread where it first appears.
	for _, pid := range []int{pidWall, pidSim} {
		name := "wall clock"
		if pid == pidSim {
			name = "simulated time"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name},
		})
	}
	named := map[[2]int]bool{}
	emit := func(c chromeEvent, thread string) {
		if row := [2]int{c.Pid, c.Tid}; !named[row] {
			named[row] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: c.Pid, Tid: c.Tid,
				Args: map[string]any{"name": thread},
			})
		}
		out.TraceEvents = append(out.TraceEvents, c)
	}
	for _, s := range spans {
		emit(chromeEvent{
			Name: s.name, Ph: "X", TS: float64(s.ts) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: pidWall, Tid: spanTid0 + s.lane,
		}, laneName(s.lane))
	}
	for _, ev := range events {
		if c, ok := t.chrome(ev); ok {
			emit(c, t.trackName(ev.Track))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// trackAgg accumulates one track's summary row.
type trackAgg struct {
	name     string
	sim      bool
	events   int
	busy     int64 // Σ slice durations
	bytes    float64
	minStart int64
	maxEnd   int64
}

// add folds one slice or sample into the row.
func (a *trackAgg) add(ts, dur int64) {
	if a.events == 0 || ts < a.minStart {
		a.minStart = ts
	}
	a.maxEnd = max(a.maxEnd, ts+dur)
	a.events++
}

// WriteTimelineSummary prints the terminal digest `-timeline -` shows:
// per-track busy time, span, utilization, and bytes, simulated workers
// first, with tr's span lanes (tr may be nil) as wall-clock rows.
// Utilization is busy/span where span is the track's own active window
// (simulated tracks start at 0 by construction).
func (t *Timeline) WriteTimelineSummary(w io.Writer, tr *Tracer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteTimelineSummary on nil timeline")
	}
	events := t.Events()
	aggs := map[string]*trackAgg{}
	row := func(name string, sim bool) *trackAgg {
		a, ok := aggs[name]
		if !ok {
			a = &trackAgg{name: name, sim: sim}
			aggs[name] = a
		}
		return a
	}
	for _, ev := range events {
		a := row(t.trackName(ev.Track), ev.Kind.simClock())
		a.add(ev.TS, ev.Dur)
		switch ev.Kind {
		case EvTaskRun:
			a.busy += ev.Dur
		case EvWorkerRun:
			a.busy += ev.Dur
			a.bytes += ev.Value
		}
	}
	for _, s := range t.spanLanes(tr) {
		a := row(laneName(s.lane), false)
		a.add(s.ts, s.dur)
		if s.top {
			a.busy += s.dur
		}
	}
	rows := make([]*trackAgg, 0, len(aggs))
	for _, a := range aggs {
		rows = append(rows, a)
	}
	slices.SortFunc(rows, func(a, b *trackAgg) int {
		if a.sim != b.sim {
			if a.sim {
				return -1
			}
			return 1
		}
		if a.busy != b.busy {
			return cmp.Compare(b.busy, a.busy)
		}
		return strings.Compare(a.name, b.name)
	})

	fmt.Fprintf(w, "timeline: %d events recorded (%d overwritten), %d tracks\n",
		len(events), t.Dropped(), len(rows))
	fmt.Fprintf(w, "%-40s%6s%8s%14s%14s%8s%14s\n",
		"track", "clock", "events", "busy", "span", "util%", "bytes")
	const top = 40
	for i, a := range rows {
		if i >= top {
			fmt.Fprintf(w, "… %d more tracks\n", len(rows)-top)
			break
		}
		span := a.maxEnd - a.minStart
		if a.sim {
			span = a.maxEnd // simulated runs start at t=0
		}
		util := 0.0
		if span > 0 {
			util = float64(a.busy) / float64(span) * 100
		}
		clock := "wall"
		if a.sim {
			clock = "sim"
		}
		bytes := ""
		if a.bytes > 0 {
			bytes = fmt.Sprintf("%14.3g", a.bytes)
		}
		fmt.Fprintf(w, "%-40s%6s%8d%14v%14v%8.1f%s\n",
			a.name, clock, a.events,
			time.Duration(a.busy).Round(time.Microsecond),
			time.Duration(span).Round(time.Microsecond),
			util, bytes)
	}
	return nil
}

// WriteTimeline emits the timeline and tr's spans the way the CLIs'
// -timeline flag specifies: path "-" prints the per-track summary to w;
// any other path gets Chrome trace-event JSON, with parent directories
// created as needed.
func WriteTimeline(t *Timeline, tr *Tracer, path string, w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteTimeline on nil timeline")
	}
	if path == "-" {
		return t.WriteTimelineSummary(w, tr)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
