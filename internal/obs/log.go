// Structured logging: a zero-dependency leveled logger emitting JSON lines
// or human-readable text (DESIGN.md §18). It reuses the span Attr vocabulary
// (Str/Int/F64) so instrumented code annotates spans and log lines with one
// idiom, serializes concurrent writers through one mutex so multi-goroutine
// shutdown output stays line-atomic and ordered, and rate-bounds sub-Warn
// records so a hot loop logging per request cannot melt the daemon.
//
// Like the rest of the package, a nil *Logger accepts every method as a
// no-op, so library code logs unconditionally and pays a nil check when the
// caller wired no logger.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LogLevel orders log records by severity. The numeric values match
// log/slog's levels.
type LogLevel int

const (
	LogDebug LogLevel = -4
	LogInfo  LogLevel = 0
	LogWarn  LogLevel = 4
	LogError LogLevel = 8
)

// String renders the level the way both output formats spell it.
func (l LogLevel) String() string {
	switch {
	case l < LogInfo:
		return "debug"
	case l < LogWarn:
		return "info"
	case l < LogError:
		return "warn"
	default:
		return "error"
	}
}

// ParseLogLevel maps a level name to its LogLevel.
func ParseLogLevel(s string) (LogLevel, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LogDebug, nil
	case "info":
		return LogInfo, nil
	case "warn", "warning":
		return LogWarn, nil
	case "error":
		return LogError, nil
	}
	return LogInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// LogOptions configures NewLogger.
type LogOptions struct {
	// Level is the minimum severity emitted (default LogInfo).
	Level LogLevel
	// Format selects "text" (default) or "json" output.
	Format string
	// SampleRate bounds records below LogWarn to this many per second;
	// 0 means unlimited. Warn and Error always pass. Dropped records are
	// counted (obs.log.dropped) and summarized when the stream resumes.
	SampleRate int
}

// ParseLogFlag parses the CLIs' -log flag value: "level", "format", or
// "level:format" (e.g. "debug", "json", "warn:json").
func ParseLogFlag(spec string) (LogOptions, error) {
	o := LogOptions{Level: LogInfo, Format: "text"}
	if spec == "" {
		return o, nil
	}
	for _, part := range strings.Split(spec, ":") {
		switch strings.ToLower(part) {
		case "text", "json":
			o.Format = strings.ToLower(part)
			continue
		}
		lv, err := ParseLogLevel(part)
		if err != nil {
			return o, fmt.Errorf("obs: bad -log value %q: %w", spec, err)
		}
		o.Level = lv
	}
	return o, nil
}

// logDropped counts records suppressed by the sampler, across all loggers.
var logDropped = NewCounter("obs.log.dropped")

// logSampler is a per-second token window shared by a logger and its With
// clones. It exists so an overloaded daemon logging per request degrades to
// a bounded stream plus a drop summary instead of an unbounded one.
type logSampler struct {
	mu      sync.Mutex
	sec     int64 // unix second the window covers
	n       int   // records emitted this window
	max     int
	dropped int64 // records suppressed this window
}

// allow reports whether a record may be emitted now, plus how many records
// the previous window dropped (nonzero exactly once per resumed stream, so
// the caller can emit one summary line).
func (s *logSampler) allow(now time.Time) (ok bool, droppedPrev int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := now.Unix()
	if sec != s.sec {
		droppedPrev = s.dropped
		s.sec, s.n, s.dropped = sec, 0, 0
	}
	if s.n >= s.max {
		s.dropped++
		logDropped.Inc()
		return false, droppedPrev
	}
	s.n++
	return true, droppedPrev
}

// Logger emits leveled, structured records. Build with NewLogger; derive
// request-scoped loggers with With. All clones share the writer, its mutex,
// and the sampler, so one process-wide rate bound and one total order of
// lines hold across every derived logger.
type Logger struct {
	mu      *sync.Mutex
	w       io.Writer
	json    bool
	level   LogLevel
	sampler *logSampler
	base    []Attr
}

// NewLogger builds a logger writing to w.
func NewLogger(w io.Writer, o LogOptions) *Logger {
	l := &Logger{
		mu:    &sync.Mutex{},
		w:     w,
		json:  o.Format == "json",
		level: o.Level,
	}
	if o.SampleRate > 0 {
		l.sampler = &logSampler{max: o.SampleRate}
	}
	return l
}

// With returns a logger that appends attrs to every record. The clone
// shares the parent's writer, level, and sampler.
func (l *Logger) With(attrs ...Attr) *Logger {
	if l == nil || len(attrs) == 0 {
		return l
	}
	c := *l
	// Re-slice to force future appends to copy: two Withs off one parent
	// must not write into the same backing array.
	c.base = append(l.base[:len(l.base):len(l.base)], attrs...)
	return &c
}

// Level returns the minimum severity emitted.
func (l *Logger) Level() LogLevel {
	if l == nil {
		return LogError + 1
	}
	return l.level
}

// Enabled reports whether records at lv would be emitted.
func (l *Logger) Enabled(lv LogLevel) bool {
	return l != nil && lv >= l.Level()
}

// Debug emits a debug record.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.Log(LogDebug, msg, attrs...) }

// Info emits an info record.
func (l *Logger) Info(msg string, attrs ...Attr) { l.Log(LogInfo, msg, attrs...) }

// Warn emits a warning record.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.Log(LogWarn, msg, attrs...) }

// Error emits an error record.
func (l *Logger) Error(msg string, attrs ...Attr) { l.Log(LogError, msg, attrs...) }

// Log emits one record at the given level. msg is the record's event name;
// the metricname analyzer holds it to the same constant dotted-lowercase
// grammar as metric names so log streams grep and aggregate like metrics.
func (l *Logger) Log(lv LogLevel, msg string, attrs ...Attr) {
	if !l.Enabled(lv) {
		return
	}
	now := time.Now()
	if lv < LogWarn && l.sampler != nil {
		ok, resumed := l.sampler.allow(now)
		if resumed > 0 {
			l.emit(now, LogWarn, "obs.log.sampled", []Attr{
				{Key: "dropped", Val: strconv.FormatInt(resumed, 10)},
			})
		}
		if !ok {
			return
		}
	}
	l.emit(now, lv, msg, attrs)
}

// emit formats and writes one record, holding the writer mutex only for
// the write so lines from concurrent goroutines interleave whole.
func (l *Logger) emit(now time.Time, lv LogLevel, msg string, attrs []Attr) {
	buf := make([]byte, 0, 256)
	if l.json {
		buf = appendJSONRecord(buf, now, lv, msg, l.base, attrs)
	} else {
		buf = appendTextRecord(buf, now, lv, msg, l.base, attrs)
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	l.w.Write(buf)
	l.mu.Unlock()
}

// appendJSONRecord renders {"ts":...,"level":...,"msg":...,attrs...}. Keys
// are emitted in argument order (base attrs first) — no map, no iteration-
// order hazard, and duplicate keys simply repeat, which line consumers
// resolve last-wins.
func appendJSONRecord(b []byte, now time.Time, lv LogLevel, msg string, base, attrs []Attr) []byte {
	b = append(b, `{"ts":"`...)
	b = now.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, lv.String()...)
	b = append(b, `","msg":`...)
	b = appendJSONString(b, msg)
	for _, a := range base {
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		b = appendJSONString(b, a.Val)
	}
	for _, a := range attrs {
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		b = appendJSONString(b, a.Val)
	}
	return append(b, '}')
}

// appendTextRecord renders `ts LEVEL msg key=value ...` with values quoted
// only when they contain whitespace, quotes, or control characters.
func appendTextRecord(b []byte, now time.Time, lv LogLevel, msg string, base, attrs []Attr) []byte {
	b = now.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, ' ')
	b = append(b, strings.ToUpper(lv.String())...)
	b = append(b, ' ')
	b = append(b, msg...)
	for _, a := range base {
		b = appendTextAttr(b, a)
	}
	for _, a := range attrs {
		b = appendTextAttr(b, a)
	}
	return b
}

func appendTextAttr(b []byte, a Attr) []byte {
	b = append(b, ' ')
	b = append(b, a.Key...)
	b = append(b, '=')
	if strings.ContainsAny(a.Val, " \t\n\r\"=") || a.Val == "" {
		return strconv.AppendQuote(b, a.Val)
	}
	return append(b, a.Val...)
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			const hexdig = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hexdig[c>>4], hexdig[c&0xf])
		default:
			// Multi-byte UTF-8 sequences pass through byte-for-byte: JSON
			// strings carry raw UTF-8.
			b = append(b, c)
		}
	}
	return append(b, '"')
}
