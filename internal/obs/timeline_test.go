package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNilTimelineIsNoOp(t *testing.T) {
	var tl *Timeline
	if tl.Now() != 0 {
		t.Fatal("nil timeline has a clock")
	}
	if tl.TrackID("x") != -1 {
		t.Fatal("nil timeline interned a track")
	}
	tl.Append(Event{Kind: EvWorkerIdle})
	if tl.Events() != nil || tl.Dropped() != 0 {
		t.Fatal("nil timeline recorded events")
	}
	if err := tl.WriteChromeTrace(&bytes.Buffer{}, New("run")); err == nil {
		t.Fatal("nil timeline export did not error")
	}
}

func TestTimelineRingWrap(t *testing.T) {
	tl := NewTimeline(4)
	id := tl.TrackID("row")
	for i := int64(0); i < 10; i++ {
		tl.Append(Event{TS: i, Track: id, Kind: EvQueueDepth})
	}
	if tl.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tl.Dropped())
	}
	evs := tl.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Events come back oldest-first: the surviving tail is TS 6..9.
	for i, ev := range evs {
		if want := int64(6 + i); ev.TS != want {
			t.Fatalf("event %d has TS %d, want %d", i, ev.TS, want)
		}
	}
}

func TestTimelineInternReuse(t *testing.T) {
	tl := NewTimeline(16)
	a := tl.TrackID("alpha")
	b := tl.TrackID("beta")
	if a == b {
		t.Fatal("distinct tracks share an id")
	}
	if again := tl.TrackID("alpha"); again != a {
		t.Fatalf("re-intern of alpha = %d, want %d", again, a)
	}
	if tl.trackName(a) != "alpha" || tl.trackName(b) != "beta" {
		t.Fatal("track table does not round-trip")
	}
	if tl.trackName(99) != "?" || tl.trackName(-1) != "?" {
		t.Fatal("out-of-range ids must render as ?")
	}
}

func TestTimelineTrackOverflow(t *testing.T) {
	tl := NewTimeline(16)
	for i := 0; i < maxTracks+10; i++ {
		tl.TrackID(fmt.Sprintf("track-%d", i))
	}
	if len(tl.tracks) > maxTracks {
		t.Fatalf("track table grew to %d, limit %d", len(tl.tracks), maxTracks)
	}
	over := tl.TrackID("yet-another")
	if tl.trackName(over) != "(overflow)" {
		t.Fatalf("overflow track renders as %q", tl.trackName(over))
	}
	// Pre-overflow tracks keep their identity.
	if tl.trackName(tl.TrackID("track-0")) != "track-0" {
		t.Fatal("early track lost after overflow")
	}
}

// chromeX decodes an export's complete ("X") slices.
func chromeX(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var out chromeTrace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var xs []chromeEvent
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" {
			xs = append(xs, ev)
		}
	}
	return xs
}

// Spans render as wall-clock slices: nested spans share a row, overlapping
// siblings get rows of their own, and open spans are measured to the read.
func TestSpansRenderAsWallSlices(t *testing.T) {
	tl := NewTimeline(16)
	tr := New("spmmsim")
	study := tr.Root().Start("fig10")
	a := tr.Phase("exec").Start("cell.a")
	b := tr.Phase("exec").Start("cell.b") // overlaps cell.a
	b.End()
	a.End()
	study.End()

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range chromeX(t, buf.Bytes()) {
		if ev.Pid != pidWall {
			t.Fatalf("span %q on pid %d, want %d", ev.Name, ev.Pid, pidWall)
		}
		tids[ev.Name] = ev.Tid
	}
	for _, want := range []string{"spmmsim", "fig10", "exec", "cell.a", "cell.b"} {
		if _, ok := tids[want]; !ok {
			t.Fatalf("span %q missing from export (have %v)", want, tids)
		}
	}
	if tids["spmmsim"] != spanTid0 || tids["fig10"] != spanTid0 {
		t.Errorf("nested spans left the first row: %v", tids)
	}
	if tids["cell.a"] == tids["cell.b"] || tids["cell.a"] == tids["fig10"] {
		t.Errorf("overlapping spans share a row: %v", tids)
	}
}

// TestWriteChromeTrace checks the export against the Chrome trace-event
// schema: a traceEvents array whose entries carry a known phase, with both
// clock processes named and every referenced thread labeled.
func TestWriteChromeTrace(t *testing.T) {
	tl := NewTimeline(64)
	simTrack := tl.TrackID("fig10/hot/w0")
	poolTrack := tl.TrackID("par/pool")
	tr := New("spmmsim")
	tr.Root().Start("fig10").End()
	tl.Append(
		Event{TS: 0, Dur: 500, Track: simTrack, Kind: EvWorkerRun, Arg: 3, Value: 4096},
		Event{TS: 500, Track: simTrack, Kind: EvWorkerIdle},
		Event{TS: 250, Track: simTrack, Kind: EvGrant, Value: 1e9},
		Event{TS: 120, Track: poolTrack, Kind: EvTaskEnqueue, Arg: 8},
		Event{TS: 130, Dur: 700, Track: poolTrack, Kind: EvTaskRun, Arg: 5},
		Event{TS: 140, Track: poolTrack, Kind: EvQueueDepth, Value: 2},
	)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}

	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	phases := map[string]int{}
	processes := map[string]bool{}
	threads := map[string]bool{}
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X", "i", "C":
			if ev.Pid != pidWall && ev.Pid != pidSim {
				t.Fatalf("event %q has pid %d", ev.Name, ev.Pid)
			}
		case "M":
			switch ev.Name {
			case "process_name":
				processes[ev.Args["name"].(string)] = true
			case "thread_name":
				threads[ev.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("unknown phase %q in export", ev.Ph)
		}
		if ev.Ph == "i" && ev.S != "t" {
			t.Fatalf("instant %q has scope %q, want t", ev.Name, ev.S)
		}
		phases[ev.Ph]++
	}
	// X: the root and fig10 spans, one worker run, one drain.
	if phases["X"] != 4 || phases["i"] != 2 || phases["C"] != 2 {
		t.Fatalf("phase counts %v, want 4 X / 2 i / 2 C", phases)
	}
	if !processes["wall clock"] || !processes["simulated time"] {
		t.Fatalf("missing process metadata: %v", processes)
	}
	for _, want := range []string{"spans/0", "fig10/hot/w0", "par/pool"} {
		if !threads[want] {
			t.Fatalf("missing thread_name for %q (have %v)", want, threads)
		}
	}

	// Spot-check the kind-specific payloads survive the mapping.
	var sawRun, sawGrant bool
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" && ev.Name == "u3" {
			sawRun = true
			if ev.Args["bytes"].(float64) != 4096 {
				t.Fatalf("worker-run bytes = %v", ev.Args["bytes"])
			}
			if ev.Dur != 0.5 { // 500ns = 0.5µs
				t.Fatalf("worker-run dur = %v µs, want 0.5", ev.Dur)
			}
		}
		if ev.Ph == "C" && strings.HasPrefix(ev.Name, "bw ") {
			sawGrant = true
			if ev.Args["bytes_per_s"].(float64) != 1e9 {
				t.Fatalf("grant value = %v", ev.Args["bytes_per_s"])
			}
		}
	}
	if !sawRun || !sawGrant {
		t.Fatal("worker-run or grant event missing from export")
	}
}

func TestWriteTimelineSummary(t *testing.T) {
	tl := NewTimeline(64)
	simTrack := tl.TrackID("fig10/hot/w0")
	tl.Append(
		Event{TS: 0, Dur: 800, Track: simTrack, Kind: EvWorkerRun, Value: 1024},
		Event{TS: 900, Dur: 100, Track: simTrack, Kind: EvWorkerRun, Value: 1024},
	)
	tr := New("spmmsim")
	tr.Root().Start("fig10").End()

	var buf bytes.Buffer
	if err := tl.WriteTimelineSummary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 events recorded") {
		t.Fatalf("summary header wrong:\n%s", out)
	}
	// Simulated tracks sort before wall rows, spans included.
	if sim, wallIdx := strings.Index(out, "fig10/hot/w0"), strings.Index(out, "spans/0"); sim < 0 || wallIdx < 0 || sim > wallIdx {
		t.Fatalf("sim track not listed first:\n%s", out)
	}
	// busy 900ns over span 1000ns = 90% utilization.
	if !strings.Contains(out, "90.0") {
		t.Fatalf("expected 90.0%% utilization:\n%s", out)
	}
}

func TestWriteTimelineFile(t *testing.T) {
	tl := NewTimeline(16)
	tr := New("run")
	tr.Root().Start("x").End()
	path := filepath.Join(t.TempDir(), "sub", "tl.json")
	if err := WriteTimeline(tl, tr, path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("written timeline is not JSON: %v", err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("written timeline lacks traceEvents")
	}
	if len(chromeX(t, data)) != 2 {
		t.Fatalf("written timeline lacks the tracer's spans:\n%s", data)
	}
	if err := WriteTimeline(nil, tr, path, nil); err == nil {
		t.Fatal("nil timeline write did not error")
	}
}
