// Flight recorder: a fixed-capacity ring of per-request records for the
// daemon (DESIGN.md §18). Every request leaves a compact record (route, ID,
// status, latency, bytes, phase timings derived from its span tree); slow
// or 5xx requests are additionally captured with their full span tree in a
// separate small post-mortem ring, served as JSON at /debug/requests and
// dumpable on SIGQUIT. What ran alongside a captured request is the compact
// ring's neighbouring records, each with its Start and LatencyNS. The rings
// are bounded and overwrite oldest-first, so the recorder's memory is
// constant no matter how long the daemon runs.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseNS is one top-level phase of a request's span tree, flattened for
// the compact per-request record.
type PhaseNS struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// RequestRecord is the compact flight-recorder entry every request leaves.
type RequestRecord struct {
	ID        string    `json:"id"`
	Method    string    `json:"method,omitempty"`
	Route     string    `json:"route"`
	Path      string    `json:"path,omitempty"`
	Status    int       `json:"status"`
	Start     time.Time `json:"start"`
	LatencyNS int64     `json:"latency_ns"`
	Bytes     int64     `json:"bytes"`
	Remote    string    `json:"remote,omitempty"`
	Err       string    `json:"err,omitempty"`
	Phases    []PhaseNS `json:"phases,omitempty"`
}

// PostmortemRecord is the full capture of one bad request: the compact
// record plus why it was captured and its span tree.
type PostmortemRecord struct {
	RequestRecord
	Reason string      `json:"reason"` // "error", "slow", or "error,slow"
	Spans  *SpanRecord `json:"spans,omitempty"`
}

// FlightConfig configures a FlightRecorder.
type FlightConfig struct {
	// SlowThreshold marks requests at or above this latency for post-mortem
	// capture (0 selects 1s; negative disables slow capture).
	SlowThreshold time.Duration
}

// Ring sizes (compact and post-mortem) and the default slow threshold.
const (
	flightCapacity       = 256
	postCapacity         = 16
	defaultSlowThreshold = time.Second
)

// FlightRecorder holds the two request rings. Build with NewFlightRecorder;
// a nil recorder accepts every method as a no-op.
type FlightRecorder struct {
	slow    time.Duration
	mu      sync.Mutex
	recent  []RequestRecord // ring; recent[total%cap] is the next slot
	total   uint64
	post    []PostmortemRecord
	postTot uint64
}

// NewFlightRecorder builds a recorder from cfg.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = defaultSlowThreshold
	}
	return &FlightRecorder{
		slow:   cfg.SlowThreshold,
		recent: make([]RequestRecord, 0, flightCapacity),
		post:   make([]PostmortemRecord, 0, postCapacity),
	}
}

// flightCaptured counts post-mortem captures (slow or 5xx requests).
var flightCaptured = NewCounter("obs.flight.captured")

// Record files one completed request. When rec.Phases is empty it is
// derived from the span tree's top-level children. spans is only retained
// when the request qualifies for post-mortem capture (status ≥ 500 or
// latency ≥ the slow threshold); it may be nil.
func (f *FlightRecorder) Record(rec RequestRecord, spans *SpanRecord) {
	if f == nil {
		return
	}
	if len(rec.Phases) == 0 && spans != nil {
		for _, c := range spans.Children {
			rec.Phases = append(rec.Phases, PhaseNS{Name: c.Name, DurNS: c.DurationNS})
		}
	}
	reason := ""
	if rec.Status >= 500 {
		reason = "error"
	}
	if f.slow >= 0 && rec.LatencyNS >= f.slow.Nanoseconds() {
		if reason != "" {
			reason += ",slow"
		} else {
			reason = "slow"
		}
	}
	var pm PostmortemRecord
	if reason != "" {
		flightCaptured.Inc()
		pm = PostmortemRecord{RequestRecord: rec, Reason: reason, Spans: spans}
	}
	f.mu.Lock()
	if len(f.recent) < cap(f.recent) {
		f.recent = append(f.recent, rec)
	} else {
		f.recent[f.total%uint64(cap(f.recent))] = rec
	}
	f.total++
	if reason != "" {
		if len(f.post) < cap(f.post) {
			f.post = append(f.post, pm)
		} else {
			f.post[f.postTot%uint64(cap(f.post))] = pm
		}
		f.postTot++
	}
	f.mu.Unlock()
}

// FlightView is the /debug/requests response shape.
type FlightView struct {
	// Total counts requests ever recorded; Captured counts post-mortems.
	Total    uint64 `json:"total"`
	Captured uint64 `json:"captured"`
	// SlowThresholdNS is the capture threshold in effect.
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
	// Recent holds the compact ring newest-first; Postmortem the capture
	// ring newest-first.
	Recent     []RequestRecord    `json:"recent"`
	Postmortem []PostmortemRecord `json:"postmortem,omitempty"`
}

// Snapshot copies both rings, newest-first.
func (f *FlightRecorder) Snapshot() FlightView {
	if f == nil {
		return FlightView{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	v := FlightView{
		Total:           f.total,
		Captured:        f.postTot,
		SlowThresholdNS: f.slow.Nanoseconds(),
		Recent:          ringNewestFirst(f.recent, f.total),
		Postmortem:      ringNewestFirst(f.post, f.postTot),
	}
	return v
}

// ringNewestFirst copies a ring whose next write lands at total%cap,
// ordering entries newest-first.
func ringNewestFirst[T any](ring []T, total uint64) []T {
	out := make([]T, 0, len(ring))
	n := uint64(len(ring))
	for i := uint64(1); i <= n; i++ {
		out = append(out, ring[(total-i)%uint64(cap(ring))])
	}
	return out
}

// WritePostmortem dumps the post-mortem ring as one JSON document — the
// SIGQUIT handler's output.
func (f *FlightRecorder) WritePostmortem(w io.Writer) error {
	v := f.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Captured   uint64             `json:"captured"`
		Postmortem []PostmortemRecord `json:"postmortem"`
	}{v.Captured, v.Postmortem})
}

// flight is the process-wide recorder /debug/requests serves. An atomic
// pointer (not a plain var) so tests and daemons reconfigure it without
// racing in-flight Record calls.
var flight atomic.Pointer[FlightRecorder]

// Flight returns the process-wide flight recorder, creating a
// default-configured one on first use.
func Flight() *FlightRecorder {
	if f := flight.Load(); f != nil {
		return f
	}
	f := NewFlightRecorder(FlightConfig{})
	if flight.CompareAndSwap(nil, f) {
		return f
	}
	return flight.Load()
}

// ConfigureFlight replaces the process-wide recorder with a fresh one built
// from cfg and returns it. Records already filed stay with the old
// recorder; in-flight Record calls land in whichever recorder they resolved.
func ConfigureFlight(cfg FlightConfig) *FlightRecorder {
	f := NewFlightRecorder(cfg)
	flight.Store(f)
	return f
}
