// Package obs is the reproduction's observability layer: hierarchical wall-
// clock spans, process-wide atomic counters and gauges, and per-run JSON
// manifests (DESIGN.md §10). It exists so perf work on the pipeline —
// tiling, model estimation, partitioning, simulated execution — can
// attribute time to stages and pin what a run produced, the measurement
// substrate the paper's evaluation methodology (§VI) assumes.
//
// Everything is nil-safe by design: a nil *Tracer or *Span accepts every
// method as a no-op, so instrumented code calls
//
//	sp := tracer.Phase("exec").Start(key)
//	defer sp.End()
//
// unconditionally and the disabled path costs only a nil check (no
// allocations, no locks; BenchmarkObsDisabled pins this). Counters are
// always live — single atomic adds placed at call granularity, never inside
// per-nonzero loops.
package obs

import (
	"strconv"
	"sync"
	"time"
)

// Tracer collects one run's span tree. The zero value is not useful; build
// with New. A nil Tracer is a valid, always-disabled tracer.
type Tracer struct {
	mu   sync.Mutex
	root *Span

	cfgMu   sync.Mutex
	config  map[string]string
	outputs []Output
}

// New returns a Tracer whose root span carries the given name (typically
// the command or study name) and starts now.
func New(name string) *Tracer {
	t := &Tracer{}
	t.root = &Span{tracer: t, Name: name, start: time.Now()}
	return t
}

// Root returns the root span (nil for a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Phase returns the direct child of the root with the given name, creating
// it on first use. Phases group the spans of one pipeline stage (generate,
// tile, estimate, exec); they stay open until Finish so concurrent work can
// keep attaching children.
func (t *Tracer) Phase(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.root.children {
		if c.Name == name {
			return c
		}
	}
	c := &Span{tracer: t, Name: name, start: time.Now(), phase: true}
	t.root.children = append(t.root.children, c)
	return c
}

// Finish closes the root span and every still-open descendant (phases in
// particular), fixing their durations. Idempotent.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	var closeAll func(s *Span)
	closeAll = func(s *Span) {
		if !s.ended {
			s.dur = now.Sub(s.start)
			s.ended = true
		}
		for _, c := range s.children {
			closeAll(c)
		}
	}
	closeAll(t.root)
}

// interval is one span as the derived views (/progress, the timeline
// exports) read it, with open spans measured up to the read.
type interval struct {
	name   string
	path   string // names below the root, "/"-joined ("" for the root)
	parent int    // index of the parent's interval; -1 for the root
	start  time.Time
	dur    time.Duration
	open   bool
	group  bool // the root or a phase: grouping nodes, not units of work
}

// intervals snapshots the span tree depth-first, parents before children.
func (t *Tracer) intervals() []interval {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	var walk func(s *Span, path string, parent int)
	walk = func(s *Span, path string, parent int) {
		iv := interval{name: s.Name, path: path, parent: parent, start: s.start,
			dur: s.dur, open: !s.ended, group: s == t.root || s.phase}
		if iv.open {
			iv.dur = now.Sub(s.start)
		}
		self := len(out)
		out = append(out, iv)
		for _, c := range s.children {
			if path == "" {
				walk(c, c.Name, self)
			} else {
				walk(c, path+"/"+c.Name, self)
			}
		}
	}
	walk(t.root, "", -1)
	return out
}

// SetConfig records one run-configuration key (scale, seed, arch, …) for
// the manifest.
func (t *Tracer) SetConfig(key, val string) {
	if t == nil {
		return
	}
	t.cfgMu.Lock()
	defer t.cfgMu.Unlock()
	if t.config == nil {
		t.config = map[string]string{}
	}
	t.config[key] = val
}

// Span is one timed region of the run. A nil Span accepts every method as a
// no-op, which is how disabled tracing stays free.
type Span struct {
	tracer *Tracer
	Name   string

	start time.Time
	dur   time.Duration
	ended bool
	phase bool // a Phase grouping node: open until Finish, not work itself

	attrs    []Attr
	children []*Span
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key, Val string
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{key, val} }

// Int builds an integer attribute.
func Int(key string, val int) Attr { return Attr{key, strconv.Itoa(val)} }

// F64 builds a float attribute.
func F64(key string, val float64) Attr {
	return Attr{key, strconv.FormatFloat(val, 'g', 6, 64)}
}

// Start opens a child span.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	c := &Span{tracer: t, Name: name, start: time.Now(), attrs: attrs}
	t.mu.Lock()
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Idempotent; children left open
// are closed by Tracer.Finish.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.tracer.mu.Unlock()
}

// SetAttr attaches (or appends) a key=value annotation.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, val})
	s.tracer.mu.Unlock()
}

// Duration returns the span's wall time (zero until ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.dur
}
