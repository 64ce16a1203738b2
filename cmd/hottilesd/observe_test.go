package main

// Tests for the request-scoped observability plane (DESIGN.md §18): one ID
// through header, access log, span tree and flight recorder; forced-5xx
// and forced-slow requests landing in the post-mortem ring; and shutdown
// logging that stays valid JSON while requests are still in flight.

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer is a Writer the daemon logger can share with a test that
// reads it while handlers are still running.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// Lines returns the non-empty log lines written so far.
func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var lines []string
	for _, ln := range strings.Split(b.buf.String(), "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	return lines
}

// jsonLines decodes every line, failing the test on any non-JSON output.
func jsonLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for i, ln := range b.Lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("log line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRequestIDCorrelation is the acceptance walk: one upload with an
// X-Request-ID must surface the same ID in the response header, the
// access-log line, the flight-recorder entry, and the span tree of the
// post-mortem capture (SlowThreshold 1ns makes every request "slow").
func TestRequestIDCorrelation(t *testing.T) {
	obs.ConfigureFlight(obs.FlightConfig{SlowThreshold: time.Nanosecond})
	defer obs.ConfigureFlight(obs.FlightConfig{})

	var buf syncBuffer
	cfg := testConfig()
	cfg.log = obs.NewLogger(&buf, obs.LogOptions{Level: obs.LogDebug, Format: "json"})
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	const id = "corr-e2e-0001"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/plan",
		bytes.NewReader(matrixBytes(t, 21, 512, 4000)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The access line and the flight record are written after the handler
	// returns, which can be after the client has read the whole body; Close
	// waits for the handler.
	ts.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /plan: %d", resp.StatusCode)
	}

	// 1. The header echo.
	if echo := resp.Header.Get(obs.RequestIDHeader); echo != id {
		t.Fatalf("X-Request-ID echo %q, want %q", echo, id)
	}

	// 2. The access log line, with the request fields alongside the ID.
	var access map[string]any
	for _, rec := range jsonLines(t, &buf) {
		if rec["msg"] == "httpd.access" && rec["req"] == id {
			access = rec
		}
	}
	if access == nil {
		t.Fatalf("no httpd.access line with req=%s in:\n%s", id, strings.Join(buf.Lines(), "\n"))
	}
	if access["route"] != "plan" || access["status"] != "200" {
		t.Fatalf("access line fields wrong: %v", access)
	}

	// 3. The flight-recorder entry on /debug/requests' backing store.
	view := obs.Flight().Snapshot()
	var entry *obs.RequestRecord
	for i := range view.Recent {
		if view.Recent[i].ID == id {
			entry = &view.Recent[i]
		}
	}
	if entry == nil {
		t.Fatalf("no flight entry with id %s (recent: %d)", id, len(view.Recent))
	}
	if entry.Route != "plan" || entry.Status != 200 {
		t.Fatalf("flight entry wrong: %+v", entry)
	}

	// 4. The span tree in the post-mortem capture, tagged with the ID and
	// carrying the pipeline's stage phases.
	var post *obs.PostmortemRecord
	for i := range view.Postmortem {
		if view.Postmortem[i].ID == id {
			post = &view.Postmortem[i]
		}
	}
	if post == nil {
		t.Fatalf("no post-mortem entry with id %s", id)
	}
	if post.Spans == nil || post.Spans.Attrs["req"] != id {
		t.Fatalf("post-mortem span tree not tagged with the request ID: %+v", post.Spans)
	}
	var stages []string
	for _, ph := range post.Phases {
		stages = append(stages, ph.Name)
	}
	if !strings.Contains(strings.Join(stages, " "), "hotcore.") {
		t.Fatalf("post-mortem phases missing pipeline stages: %v", stages)
	}
}

// TestPostmortemCapturesErrorAndSlow pins the retention policy: a forced
// 5xx and a forced-slow request both land in the post-mortem ring with the
// right reason, while the recent ring records everything.
func TestPostmortemCapturesErrorAndSlow(t *testing.T) {
	// Phase one: a forced 504 (timeout) with a generous slow threshold, so
	// the capture reason is purely "error".
	obs.ConfigureFlight(obs.FlightConfig{SlowThreshold: time.Minute})
	defer obs.ConfigureFlight(obs.FlightConfig{})

	cfg := testConfig()
	cfg.reqTimeout = 50 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.buildHook = func() { time.Sleep(300 * time.Millisecond) }
	ts := httptest.NewServer(s.mux)

	resp := postPlan(t, ts.Client(), ts.URL, matrixBytes(t, 22, 256, 2000))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	errID := resp.Header.Get(obs.RequestIDHeader)
	if errID == "" {
		t.Fatal("no minted X-Request-ID on the 504 response")
	}

	view := obs.Flight().Snapshot()
	post := findPostmortem(view, errID)
	if post == nil {
		t.Fatalf("504 request %s not in the post-mortem ring", errID)
	}
	if post.Reason != "error" || post.Status != http.StatusGatewayTimeout {
		t.Fatalf("post-mortem reason %q status %d, want error/504", post.Reason, post.Status)
	}
	if post.Err == "" {
		t.Fatal("post-mortem entry retained no error text")
	}

	// Phase two: a healthy build captured only because it crosses the slow
	// threshold; its phases must carry the pipeline stage timings.
	obs.ConfigureFlight(obs.FlightConfig{SlowThreshold: time.Nanosecond})
	s2, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.mux)
	defer ts2.Close()

	resp2 := postPlan(t, ts2.Client(), ts2.URL, matrixBytes(t, 23, 512, 4000))
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	// As in phase one, Close waits for the handler, and so for its record.
	ts2.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp2.StatusCode)
	}
	slowID := resp2.Header.Get(obs.RequestIDHeader)

	view = obs.Flight().Snapshot()
	post = findPostmortem(view, slowID)
	if post == nil {
		t.Fatalf("slow request %s not in the post-mortem ring", slowID)
	}
	if post.Reason != "slow" {
		t.Fatalf("post-mortem reason %q, want slow", post.Reason)
	}
	if len(post.Phases) == 0 {
		t.Fatal("slow post-mortem entry has no phase timings")
	}
	for _, ph := range post.Phases {
		if ph.DurNS < 0 {
			t.Fatalf("phase %s has negative duration", ph.Name)
		}
	}
}

func findPostmortem(view obs.FlightView, id string) *obs.PostmortemRecord {
	for i := range view.Postmortem {
		if view.Postmortem[i].ID == id {
			return &view.Postmortem[i]
		}
	}
	return nil
}

// TestDrainLoggingJSON is satellite 4: the SIGTERM drain path logs through
// the structured logger, so shutdown lines under load are individually
// valid JSON, never interleaved mid-line, and ordered start → done with
// the in-flight request's access line between or before done.
func TestDrainLoggingJSON(t *testing.T) {
	var buf syncBuffer
	cfg := testConfig()
	cfg.log = obs.NewLogger(&buf, obs.LogOptions{Level: obs.LogDebug, Format: "json"})
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enteredCh := make(chan struct{})
	var entered sync.Once
	s.buildHook = func() {
		entered.Do(func() { close(enteredCh) })
		time.Sleep(200 * time.Millisecond)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.mux}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/plan", "text/plain",
			bytes.NewReader(matrixBytes(t, 24, 512, 4000)))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-enteredCh // request mid-build: drain now, as main's signal loop would

	if err := drain(srv, cfg.log, "test", 10*time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d", code)
	}

	recs := jsonLines(t, &buf) // every line must parse — the core assertion
	idx := map[string]int{}
	for i, rec := range recs {
		msg, _ := rec["msg"].(string)
		if _, seen := idx[msg]; !seen {
			idx[msg] = i
		}
	}
	start, ok := idx["hottilesd.drain.start"]
	if !ok {
		t.Fatal("no hottilesd.drain.start line")
	}
	doneIdx, ok := idx["hottilesd.drain.done"]
	if !ok {
		t.Fatal("no hottilesd.drain.done line")
	}
	if start >= doneIdx {
		t.Fatalf("drain.start at line %d not before drain.done at %d", start, doneIdx)
	}
	access, ok := idx["httpd.access"]
	if !ok {
		t.Fatal("no httpd.access line for the drained request")
	}
	if access >= doneIdx {
		t.Fatalf("access line %d after drain.done %d: request finished after drain returned", access, doneIdx)
	}
	if recs[doneIdx]["cause"] != "test" {
		t.Fatalf("drain.done cause %v, want test", recs[doneIdx]["cause"])
	}
}
