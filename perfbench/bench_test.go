package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/mm"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p int
		v    float64
	}{
		{100, 90, 90}, // p91 would leave 9 above it
		{38, 73, 28},  // two repro sweeps of 19 studies
		{60, 83, 50},
		{20, 50, 10},
		{19, 100, 19}, // too few for p50: the maximum, flagged as p100
	} {
		p, v := tail(seq(tc.n))
		if p != tc.p || v != tc.v {
			t.Errorf("n=%d: tail = p%d %g, want p%d %g", tc.n, p, v, tc.p, tc.v)
		}
	}
	for n := 20; n <= 500; n++ {
		xs := seq(n)
		p, v := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if p < 50 || p > 99 || beyond < minBeyond {
			t.Fatalf("n=%d: p%d = %g has %d samples beyond it", n, p, v, beyond)
		}
		if p < 99 {
			// The next percentile up must not qualify.
			if rank := (p + 1) * n; (rank+99)/100 <= n-minBeyond {
				t.Fatalf("n=%d: p%d qualifies too, tail stopped at p%d", n, p+1, p)
			}
		}
	}
}

func TestUploadsDeterministicInSeed(t *testing.T) {
	a, err := uploads(7, "wik", "myc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := uploads(7, "wik", "myc")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body(nil), b[i].body(nil)) {
			t.Errorf("%s: two generations from seed 7 differ", a[i].name)
		}
	}
	c, err := uploads(8, "wik")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[0].body(nil), c[0].body(nil)) {
		t.Error("wik: seeds 7 and 8 generate the same upload")
	}
}

func TestRequestCommentsMissTheCacheOnly(t *testing.T) {
	ups, err := uploads(1, "myc")
	if err != nil {
		t.Fatal(err)
	}
	u := ups[0]
	plain, err := mm.Read(bytes.NewReader(u.body(nil)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]int{}
	for k := 0; k < 12; k++ {
		body := u.body(requestComment(1, k))
		h := sha256.Sum256(body)
		if prev, dup := seen[h]; dup {
			t.Fatalf("requests %d and %d hash alike", prev, k)
		}
		seen[h] = k
		m, err := mm.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		if m.NNZ() != plain.NNZ() || !slices.Equal(m.Rows, plain.Rows) || !slices.Equal(m.Cols, plain.Cols) || !slices.Equal(m.Vals, plain.Vals) {
			t.Fatalf("request %d parses to a different matrix", k)
		}
	}
}

func TestDigestMasksExactlyFig18HostRows(t *testing.T) {
	render := func(f *experiments.Fig18Result) []string {
		var buf bytes.Buffer
		f.Render(&buf)
		return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	base := &experiments.Fig18Result{AvgOverheadFrac: 0.8, Rows: []experiments.Fig18Row{
		{Short: "ski", BaseFormat: 0.0062, Scan: 0.0094, Partition: 0.0053, ExtraFormat: 0.0027, OverheadFrac: 0.74},
		{Short: "wik", BaseFormat: 0.0019, Scan: 0.0051, Partition: 0.0025, ExtraFormat: 0.0015, OverheadFrac: 0.83},
	}}
	want := studyDigest("fig18", render(base))

	// Different host timings: same digest.
	timed := *base
	timed.AvgOverheadFrac = 0.5
	timed.Rows = slices.Clone(base.Rows)
	timed.Rows[0].Scan, timed.Rows[1].OverheadFrac = 0.9, 0.1
	if got := studyDigest("fig18", render(&timed)); got != want {
		t.Error("a host-timed fig18 value changed the digest")
	}

	lines := render(base)
	changes := map[string][]string{
		"title":       append([]string{lines[0] + "!"}, lines[1:]...),
		"column head": append(append([]string{lines[0]}, strings.Replace(lines[1], "partition", "partitian", 1)), lines[2:]...),
		"matrix name": append(append([]string{lines[0], lines[1]}, strings.Replace(lines[2], "ski", "sky", 1)), lines[3:]...),
		"extra row":   append(slices.Clone(lines), "ski extra"),
		"missing row": append(slices.Clone(lines[:2]), lines[3:]...),
	}
	for what, changed := range changes {
		if studyDigest("fig18", changed) == want {
			t.Errorf("fig18: a changed %s kept the digest", what)
		}
	}
	// The same rows in any other study are digested verbatim.
	if studyDigest("fig17", render(&timed)) == studyDigest("fig17", render(base)) {
		t.Error("fig17: rows shaped like fig18's were masked")
	}
}

func TestOpenLoopCountsLatenessFromDueTime(t *testing.T) {
	const unit = 20 * time.Millisecond
	// Capacity is two operations per 3 units, arrivals one per unit: the
	// generator falls behind by a predictable amount.
	start := time.Now().Add(unit)
	sched := openLoop(start, unit, 10*unit, 5, 2, func(int) { time.Sleep(3 * unit) })
	if len(sched) != 10 {
		t.Fatalf("%d operations, want 10 (whole passes of 5 up to the window)", len(sched))
	}
	wantLate := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4} // in units
	for j, s := range sched {
		if !s.due.Equal(start.Add(time.Duration(j) * unit)) {
			t.Errorf("op %d due at %v, want start+%d units", j, s.due.Sub(start), j)
		}
		if s.late() < 0 {
			t.Errorf("op %d sent %v before it was due", j, -s.late())
		}
		if s.latency() != s.late()+s.done.Sub(s.sent) {
			t.Errorf("op %d: latency %v is not lateness %v plus service %v", j, s.latency(), s.late(), s.done.Sub(s.sent))
		}
		want := time.Duration(wantLate[j]) * unit
		if d := s.late() - want; d < -unit/2 || d > unit/2 {
			t.Errorf("op %d late %v, want about %v", j, s.late(), want)
		}
	}

	// Within capacity, nothing waits.
	start = time.Now().Add(unit)
	for j, s := range openLoop(start, unit, 4*unit, 1, 2, func(int) { time.Sleep(unit / 4) }) {
		if s.late() > unit/2 {
			t.Errorf("op %d late %v with idle connections", j, s.late())
		}
	}
}

func TestClosedLoopSendsWholePasses(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	n := closedLoop(2, 5, 30*time.Millisecond, func(k int) {
		time.Sleep(4 * time.Millisecond)
		mu.Lock()
		seen[k]++
		mu.Unlock()
	})
	if n == 0 || n%5 != 0 {
		t.Fatalf("sent %d requests, want whole passes of 5", n)
	}
	for k := 0; k < n; k++ {
		if seen[k] != 1 {
			t.Errorf("request %d sent %d times", k, seen[k])
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "item", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 50, End: 60},
		{Name: "a", Parent: -1, Start: 200, End: 205},
	}}
	self := tr.selfTimes()
	if got := self["item"]; !slices.Equal(got, []time.Duration{60}) {
		t.Errorf("item self time %v, want [60]", got)
	}
	if got := self["a"]; !slices.Equal(got, []time.Duration{30, 5}) {
		t.Errorf("a self times %v, want [30 5]", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w[0] || got[i].Unit != w[1] {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, w[0], w[1])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerMetrics())
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark drives %d", len(spec.Workloads), len(workloads))
	}
}
