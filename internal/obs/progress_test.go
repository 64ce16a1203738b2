package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func runningNames(v ProgressView) []string {
	var out []string
	for _, it := range v.Running {
		out = append(out, it.Name)
	}
	return out
}

func recentNames(v ProgressView) []string {
	var out []string
	for _, it := range v.Recent {
		out = append(out, it.Name)
	}
	return out
}

// The board is a view of the span tree: open spans run, ended spans are
// recent and completed, and the root and phases are never listed.
func TestProgressBoard(t *testing.T) {
	tr := New("ptest")
	a := tr.Root().Start("alpha")
	b := tr.Phase("exec").Start("beta")

	v := tr.progress()
	if got := runningNames(v); len(got) != 2 {
		t.Fatalf("running = %v, want alpha and exec/beta", got)
	}
	if v.Completed != 0 {
		t.Errorf("Completed = %d before any span ended", v.Completed)
	}

	a.End()
	a.End() // idempotent
	v = tr.progress()
	if got := runningNames(v); len(got) != 1 || got[0] != "exec/beta" {
		t.Errorf("after alpha ended running = %v, want only exec/beta", got)
	}
	if v.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (idempotent End)", v.Completed)
	}
	if got := recentNames(v); len(got) != 1 || got[0] != "alpha" {
		t.Errorf("recent = %v, want finished alpha", got)
	}

	b.End()
	if got := runningNames(tr.progress()); len(got) != 0 {
		t.Errorf("spans left on the board: %v", got)
	}

	var nilTr *Tracer
	if v := nilTr.progress(); v.Running == nil || len(v.Running) != 0 || v.Completed != 0 {
		t.Errorf("nil tracer board = %+v, want empty", v)
	}
}

// Two concurrent spans of the same name are distinct board entries.
func TestProgressSameName(t *testing.T) {
	tr := New("ptest")
	s1 := tr.Root().Start("dup")
	s2 := tr.Root().Start("dup")
	if got := runningNames(tr.progress()); len(got) != 2 {
		t.Errorf("running = %v, want two dup entries", got)
	}
	s1.End()
	if got := runningNames(tr.progress()); len(got) != 1 {
		t.Errorf("running = %v, want one dup left", got)
	}
	s2.End()
}

func TestProgressConcurrent(t *testing.T) {
	tr := New("ptest")
	const workers, per = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Root().Start("conc")
				tr.progress() // reads race with starts under -race
				sp.End()
			}
		}()
	}
	wg.Wait()
	v := tr.progress()
	if v.Completed != workers*per {
		t.Errorf("Completed = %d, want %d", v.Completed, workers*per)
	}
	if got := runningNames(v); len(got) != 0 {
		t.Errorf("%d conc spans still running", len(got))
	}
	// The recent list stays bounded no matter how many spans ended.
	if len(v.Recent) != progressRecent {
		t.Errorf("recent list has %d entries, want %d", len(v.Recent), progressRecent)
	}
}

func TestProgressJSONShape(t *testing.T) {
	tr := New("ptest")
	sp := tr.Root().Start("http")
	defer sp.End()

	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/progress")
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}

	// Pin the wire shape, not just the Go struct: the keys are the JSON
	// contract dashboards scrape.
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if _, ok := raw["running"]; !ok {
		t.Fatalf("response lacks \"running\": %v", raw)
	}
	if _, ok := raw["completed"]; !ok {
		t.Fatalf("response lacks \"completed\": %v", raw)
	}
	var running []RunningItem
	if err := json.Unmarshal(raw["running"], &running); err != nil {
		t.Fatalf("running key: %v", err)
	}
	found := false
	for _, it := range running {
		if it.Name == "http" {
			found = true
			if it.ElapsedMS < 0 {
				t.Errorf("negative elapsed: %v", it)
			}
		}
	}
	if !found {
		t.Errorf("/progress does not show the open span: %v", running)
	}
}
