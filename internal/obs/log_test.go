package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// decodeLogLines unmarshals each line of a JSON log stream, failing on any
// line that is not a flat string-to-string object.
func decodeLogLines(t *testing.T, buf *bytes.Buffer) []map[string]string {
	t.Helper()
	var out []map[string]string
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var m map[string]string
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %q is not valid JSON: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Level: LogDebug, Format: "json"})
	l.Info("test.event", Str("key", "value"), Int("n", 7))
	l.Error("test.fail", Str("err", `quote " backslash \ newline`+"\n"))

	recs := decodeLogLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r := recs[0]
	if r["level"] != "info" || r["msg"] != "test.event" || r["key"] != "value" || r["n"] != "7" {
		t.Errorf("first record wrong: %v", r)
	}
	if r["ts"] == "" {
		t.Errorf("record missing ts: %v", r)
	}
	if recs[1]["level"] != "error" {
		t.Errorf("second record level = %q, want error", recs[1]["level"])
	}
	if want := `quote " backslash \ newline` + "\n"; recs[1]["err"] != want {
		t.Errorf("escaping round-trip: got %q want %q", recs[1]["err"], want)
	}
}

func TestLoggerText(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{})
	l.Info("test.event", Str("plain", "bare"), Str("spaced", "two words"))
	line := strings.TrimRight(buf.String(), "\n")
	for _, want := range []string{" INFO test.event", " plain=bare", ` spaced="two words"`} {
		if !strings.Contains(line, want) {
			t.Errorf("text line %q missing %q", line, want)
		}
	}
}

func TestLoggerLevelsAndWith(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Level: LogWarn, Format: "json"})
	child := l.With(Str("req", "abc123"))
	child.Info("test.hidden") // below level
	child.Warn("test.shown", Str("extra", "x"))
	recs := decodeLogLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (info filtered)", len(recs))
	}
	if recs[0]["req"] != "abc123" || recs[0]["extra"] != "x" {
		t.Errorf("With attrs missing: %v", recs[0])
	}

	// The level is shared between a logger and its clones.
	if child.Level() != LogWarn {
		t.Errorf("child level = %v, want warn", child.Level())
	}

	// Two Withs off one parent must not clobber each other's attrs.
	buf.Reset()
	a := l.With(Str("which", "a"))
	b := l.With(Str("which", "b"))
	a.Warn("test.a")
	b.Warn("test.b")
	recs = decodeLogLines(t, &buf)
	if len(recs) != 2 || recs[0]["which"] != "a" || recs[1]["which"] != "b" {
		t.Errorf("sibling With loggers interfere: %v", recs)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", Str("k", "v"))
	l.Warn("x")
	l.Error("x")
	if l.With(Str("k", "v")) != nil {
		t.Errorf("nil.With should stay nil")
	}
	if l.Enabled(LogError) {
		t.Errorf("nil logger must report disabled")
	}
}

func TestLoggerSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Level: LogDebug, Format: "json", SampleRate: 5})
	before := logDropped.Load()
	for i := 0; i < 20; i++ {
		l.Info("test.flood", Int("i", i))
	}
	dropped := logDropped.Load() - before
	var flood int
	for _, r := range decodeLogLines(t, &buf) {
		if r["msg"] == "test.flood" {
			flood++
		}
	}
	// The 20 records span at most two one-second windows: at most 10 pass.
	if flood > 10 {
		t.Errorf("sampler passed %d records, want <= 10", flood)
	}
	if dropped < 10 {
		t.Errorf("sampler dropped %d records, want >= 10", dropped)
	}
	// Warn bypasses the sampler even mid-flood.
	buf.Reset()
	l.Warn("test.always")
	found := false
	for _, r := range decodeLogLines(t, &buf) {
		if r["msg"] == "test.always" {
			found = true
		}
	}
	if !found {
		t.Errorf("warn record was sampled away")
	}
}

func TestLoggerConcurrentLinesAtomic(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Format: "json"})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rl := l.With(Str("worker", fmt.Sprintf("w%d", w)))
			for i := 0; i < per; i++ {
				rl.Info("test.concurrent", Int("i", i))
			}
		}(w)
	}
	wg.Wait()
	recs := decodeLogLines(t, &buf) // fails on any torn line
	if len(recs) != workers*per {
		t.Errorf("got %d records, want %d", len(recs), workers*per)
	}
}

func TestParseLogFlag(t *testing.T) {
	cases := []struct {
		in      string
		level   LogLevel
		format  string
		wantErr bool
	}{
		{"", LogInfo, "text", false},
		{"debug", LogDebug, "text", false},
		{"json", LogInfo, "json", false},
		{"warn:json", LogWarn, "json", false},
		{"json:error", LogError, "json", false},
		{"bogus", LogInfo, "text", true},
	}
	for _, c := range cases {
		o, err := ParseLogFlag(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseLogFlag(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (o.Level != c.level || o.Format != c.format) {
			t.Errorf("ParseLogFlag(%q) = %+v, want level %v format %q", c.in, o, c.level, c.format)
		}
	}
	if lv, err := ParseLogLevel("warning"); err != nil || lv != LogWarn {
		t.Errorf("ParseLogLevel(warning) = %v, %v", lv, err)
	}
}
