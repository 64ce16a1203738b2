// Timeline tracing: a ring-buffered event recorder for the fine-grained,
// nameless behavior the span tree and counters deliberately discard —
// individual simulated workers starting and finishing units, bandwidth
// grants changing, pool goroutines draining fan-outs. Events live in a
// fixed ring (oldest overwritten first), so a full `spmmsim all` run
// records the tail of its activity in bounded memory. Named wall-clock
// intervals are not recorded here: they are spans (obs.go), which the
// exports render next to the ring's events. Exported as Chrome trace-event
// JSON (viewable in Perfetto or chrome://tracing) or as a terminal
// per-track utilization summary.
//
// Two clocks coexist: wall-clock events (pool activity, and the tracer's
// spans) carry nanoseconds since the timeline's epoch, while simulator
// events carry *simulated* nanoseconds. The Chrome export separates them
// into two trace "processes" so Perfetto never mixes the time bases on one
// row.
//
// Everything is nil-safe: a nil *Timeline accepts every method as a no-op,
// so instrumented code records unconditionally and the disabled path costs
// a nil check — no allocations, no locks (TestEngineStepAllocs and
// BenchmarkObsDisabled pin this for the engine and experiment paths).
package obs

import (
	"sync"
	"time"
)

// EventKind classifies one timeline event.
type EventKind uint8

const (
	// EvWorkerRun is one simulated worker executing one unit: the slice
	// [TS, TS+Dur) on the simulated clock, Arg = unit index within the
	// worker's pool (the tile id for hot pools), Value = bytes the worker
	// moved to/from main memory during the unit.
	EvWorkerRun EventKind = iota
	// EvWorkerIdle marks the simulated instant a worker's pool queue ran
	// dry (the worker idles for the rest of the run).
	EvWorkerIdle
	// EvGrant samples a simulated worker's bandwidth grant after a
	// reallocation changed it; Value = the new grant in bytes/s.
	EvGrant
	// EvTaskEnqueue marks a fan-out submitted to the worker pool; Arg = the
	// number of items enqueued.
	EvTaskEnqueue
	// EvTaskRun is one goroutine's participation in a fan-out: the
	// wall-clock slice [TS, TS+Dur) spent draining items, Arg = items
	// drained.
	EvTaskRun
	// EvQueueDepth samples the pool's extra-goroutine depth; Value = depth.
	EvQueueDepth
)

// simClock reports whether the kind's TS/Dur are simulated nanoseconds
// rather than wall-clock nanoseconds since the epoch.
func (k EventKind) simClock() bool {
	return k == EvWorkerRun || k == EvWorkerIdle || k == EvGrant
}

// Event is one timeline record. Events are plain values sized for the
// ring: track labels are interned, so recording never retains caller
// memory.
type Event struct {
	TS    int64 // ns: wall-clock since epoch, or simulated (see EventKind)
	Dur   int64 // slice width in ns; 0 for instants and samples
	Track int32 // track id from Timeline.TrackID
	Kind  EventKind
	Arg   int64   // kind-specific: unit index, item count
	Value float64 // kind-specific: bytes, bytes/s, depth
}

// Timeline is the ring-buffered recorder. Build with NewTimeline; a nil
// Timeline is a valid, always-disabled recorder.
type Timeline struct {
	epoch time.Time

	mu     sync.Mutex
	buf    []Event
	total  uint64 // events ever appended; ring holds the last len(buf)
	tracks []string
	trackI map[string]int32
}

// maxTracks bounds the track table: a long sweep creates tracks per
// simulated run, and the table must not grow without bound when the ring
// does not. Excess labels collapse onto a shared overflow track.
const maxTracks = 4096

// DefaultTimelineEvents is the ring capacity NewTimeline uses for
// non-positive requests: enough for the tail of a full study sweep while
// staying a few megabytes.
const DefaultTimelineEvents = 1 << 16

// NewTimeline returns a recorder whose ring holds the last capacity
// events (capacity <= 0 selects DefaultTimelineEvents).
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineEvents
	}
	return &Timeline{
		epoch:  time.Now(),
		buf:    make([]Event, 0, capacity),
		trackI: map[string]int32{},
	}
}

// Now returns nanoseconds since the timeline's epoch (0 for a nil
// timeline).
func (t *Timeline) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// TrackID maps a track label to its stable id, creating the track on first
// use. Once the table is full, further labels share one "(overflow)" track
// rather than growing it.
func (t *Timeline) TrackID(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.trackI[name]; ok {
		return id
	}
	if len(t.tracks) >= maxTracks-1 {
		name = "(overflow)"
		if id, ok := t.trackI[name]; ok {
			return id
		}
	}
	id := int32(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.trackI[name] = id
	return id
}

// Append copies events into the ring, overwriting the oldest when full.
// The events themselves are plain values, so Append allocates nothing once
// the ring is warm.
func (t *Timeline) Append(evs ...Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	for _, ev := range evs {
		if len(t.buf) < cap(t.buf) {
			t.buf = append(t.buf, ev)
		} else {
			t.buf[t.total%uint64(cap(t.buf))] = ev
		}
		t.total++
	}
	t.mu.Unlock()
}

// Events returns the recorded events oldest-first (a copy).
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	if t.total <= uint64(cap(t.buf)) {
		copy(out, t.buf)
		return out
	}
	head := int(t.total % uint64(cap(t.buf))) // oldest event's slot
	n := copy(out, t.buf[head:])
	copy(out[n:], t.buf[:head])
	return out
}

// Dropped returns how many events the ring has overwritten.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(cap(t.buf)) {
		return 0
	}
	return t.total - uint64(cap(t.buf))
}

// trackName resolves a track id for rendering.
func (t *Timeline) trackName(id int32) string {
	if t == nil || id < 0 || int(id) >= len(t.tracks) {
		return "?"
	}
	return t.tracks[id]
}
