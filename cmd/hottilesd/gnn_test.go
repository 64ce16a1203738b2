package main

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

func postGNN(t *testing.T, client *http.Client, url string, body []byte, query string) *http.Response {
	t.Helper()
	resp, err := client.Post(url+"/gnn"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeGNN(t *testing.T, body []byte) gnnResponse {
	t.Helper()
	var g gnnResponse
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatalf("bad /gnn response %q: %v", body, err)
	}
	return g
}

// planSeries scrapes /metrics and returns every series of a *.plan.* metric
// (sanitized: "_plan_") with its value.
func planSeries(t *testing.T, client *http.Client, url string) map[string]string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := map[string]string{}
	for _, line := range strings.Split(string(text), "\n") {
		series, val, ok := strings.Cut(line, " ")
		if ok && !strings.HasPrefix(line, "#") && strings.Contains(series, "_plan_") {
			out[series] = val
		}
	}
	return out
}

// TestGNNBadMatrixLeavesPlanSeries: a /gnn upload that fails to parse is
// answered 400 through the shared error path, and is counted under the gnn
// route only — no *.plan.* series moves.
func TestGNNBadMatrixLeavesPlanSeries(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	before := planSeries(t, ts.Client(), ts.URL)
	if len(before) == 0 {
		t.Fatal("/metrics has no *.plan.* series to compare")
	}
	resp := postGNN(t, ts.Client(), ts.URL, []byte("this is not MatrixMarket"), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	after := planSeries(t, ts.Client(), ts.URL)
	for series, val := range before {
		if after[series] != val {
			t.Errorf("%s moved from %s to %s on a /gnn failure", series, val, after[series])
		}
	}
}

// TestGNNEndToEnd: one upload, three layers, a complete deterministic
// response — and a repeat request served from the cached plan.
func TestGNNEndToEnd(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 10, 512, 4000)
	resp := postGNN(t, ts.Client(), ts.URL, upload, "?layers=3")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gnn: %d: %s", resp.StatusCode, body)
	}
	g := decodeGNN(t, body)
	if g.Layers != 3 || len(g.LayerTimes) != 3 {
		t.Fatalf("layers = %d, %d times, want 3", g.Layers, len(g.LayerTimes))
	}
	if g.SimTotal <= 0 || len(g.OutputSHA256) != 64 || len(g.Hash) != 64 {
		t.Fatalf("incomplete response: %+v", g)
	}

	// Same upload again: the plan is cached, the response byte-identical.
	resp2 := postGNN(t, ts.Client(), ts.URL, upload, "?layers=3")
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(body, body2) {
		t.Fatal("repeat /gnn request returned a different response")
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("pipeline ran %d times for one matrix, want 1", st.Builds)
	}

	// The plan /gnn built is fetchable by hash — the endpoints share one
	// content-addressed store.
	get, err := ts.Client().Get(ts.URL + "/plan/" + g.Hash)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan/{hash} after /gnn: %d", get.StatusCode)
	}
}

// TestGNNConcurrentRequestsShareOnePlanBuild mirrors the /plan coalescing
// test: N concurrent identical /gnn requests run the preprocessing pipeline
// exactly once and all report the same output hash.
func TestGNNConcurrentRequestsShareOnePlanBuild(t *testing.T) {
	const followers = 7
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var entered sync.Once
	enteredCh := make(chan struct{})
	s.buildHook = func() {
		entered.Do(func() { close(enteredCh) })
		<-release
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 11, 512, 4000)
	bodies := make([][]byte, followers+1)
	codes := make([]int, followers+1)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp := postGNN(t, ts.Client(), ts.URL, upload, "?layers=2")
		defer resp.Body.Close()
		codes[i] = resp.StatusCode
		bodies[i], _ = io.ReadAll(resp.Body)
	}
	wg.Add(1)
	go post(0)
	<-enteredCh // leader holds the build open; the rest must coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go post(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %+v", s.store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	want := decodeGNN(t, bodies[0])
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if got := decodeGNN(t, bodies[i]); got.OutputSHA256 != want.OutputSHA256 {
			t.Fatalf("request %d computed a different output hash", i)
		}
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests, want 1 (%+v)",
			st.Builds, followers+1, st)
	}
}

// TestGNNPlanEndpointWarmsGNN: a plan built via POST /plan is reused by a
// later POST /gnn of the same matrix — the train-once/infer-many flow
// across endpoints.
func TestGNNPlanEndpointWarmsGNN(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 12, 512, 4000)
	resp := postPlan(t, ts.Client(), ts.URL, upload)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /plan: %d", resp.StatusCode)
	}

	gresp := postGNN(t, ts.Client(), ts.URL, upload, "")
	body, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gnn: %d: %s", gresp.StatusCode, body)
	}
	g := decodeGNN(t, body)
	if g.Layers != 2 {
		t.Fatalf("default layers = %d, want 2", g.Layers)
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("/gnn rebuilt a plan /plan already built (%d builds)", st.Builds)
	}
}

func TestGNNBadLayers400(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	upload := matrixBytes(t, 13, 256, 2000)
	for _, q := range []string{"?layers=0", "?layers=-3", "?layers=banana", "?layers=1000"} {
		resp := postGNN(t, ts.Client(), ts.URL, upload, q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestGNNDrainUnderLoad: a /gnn request whose plan build is in flight when
// the graceful drain starts still receives its complete inference result.
func TestGNNDrainUnderLoad(t *testing.T) {
	s, err := newServer(testConfig())
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

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/gnn?layers=4", "text/plain",
			bytes.NewReader(matrixBytes(t, 14, 512, 4000)))
		if err != nil {
			done <- result{-1, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, body}
	}()
	<-enteredCh // request is mid-build; now drain

	if err := obs.GracefulStop(srv, 10*time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	got := <-done
	if got.code != http.StatusOK {
		t.Fatalf("in-flight /gnn during drain: status %d: %s", got.code, got.body)
	}
	g := decodeGNN(t, got.body)
	if g.Layers != 4 || len(g.LayerTimes) != 4 || g.SimTotal <= 0 || len(g.OutputSHA256) != 64 {
		t.Fatalf("drained /gnn response incomplete: %+v", g)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}
