package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
)

func TestAllNamesOrdered(t *testing.T) {
	names := allNames()
	if len(names) != len(table) {
		t.Fatalf("%d names for %d experiments", len(names), len(table))
	}
	// Figures first, numerically; then tables; extras last.
	want := []string{"fig4", "fig5", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "tab6", "tab7", "tab9",
		"evolve", "gnn", "kernels", "reorder", "vislat"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s (full: %v)", i, names[i], want[i], names)
		}
	}
}

func TestOrderKey(t *testing.T) {
	if orderKey("fig4") >= orderKey("fig10") {
		t.Fatal("figure ordering wrong")
	}
	if orderKey("fig18") >= orderKey("tab6") {
		t.Fatal("tables must follow figures")
	}
	if orderKey("tab9") >= orderKey("reorder") {
		t.Fatal("extras must come last")
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	// One smoke execution of every registered experiment at a very coarse
	// scale; failures here mean the CLI would crash.
	for _, name := range allNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			e := newTestEnv()
			if err := table[name](context.Background(), e, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// newTestEnv returns a very coarse environment for smoke tests.
func newTestEnv() *experiments.Env { return experiments.NewEnv(1024, 1) }

// TestTimelineChromeSchema runs one experiment exactly the way
// `spmmsim -timeline out.json fig10` does and validates the exported
// timeline against the Chrome trace-event schema Perfetto consumes: valid
// JSON, only known phase codes, the two clock processes named, at least
// one simulated worker slice, and the study's span as a wall-clock slice.
func TestTimelineChromeSchema(t *testing.T) {
	prev := obs.SetDeepTiming(true)
	defer obs.SetDeepTiming(prev)
	tl := obs.NewTimeline(0)
	tr := obs.New("spmmsim")
	e := newTestEnv()
	e.SetTracer(tr)
	e.SetTimeline(tl)
	par.SetTimeline(tl)
	defer par.SetTimeline(nil)

	if err := runStudy(context.Background(), tr, e, "fig10", io.Discard); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("timeline export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("timeline export has no events")
	}
	processes := map[string]bool{}
	workerSlices := 0
	studySlice := false
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X", "i", "C":
			if ev.Pid != 1 && ev.Pid != 2 {
				t.Fatalf("event %q has pid %d, want 1 or 2", ev.Name, ev.Pid)
			}
		case "M":
			if ev.Name == "process_name" {
				processes[ev.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("unknown trace phase %q", ev.Ph)
		}
		if ev.Ph == "X" && ev.Pid == 2 {
			workerSlices++
		}
		if ev.Ph == "X" && ev.Pid == 1 && ev.Name == "fig10" {
			studySlice = true
		}
	}
	if !processes["wall clock"] || !processes["simulated time"] {
		t.Fatalf("missing process metadata: %v", processes)
	}
	if workerSlices == 0 {
		t.Fatal("no simulated worker slices in the export")
	}
	if !studySlice {
		t.Fatal("no wall-clock slice for the fig10 study span")
	}
}
