package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/hotcore"
	"repro/internal/mm"
	"repro/internal/planstore"
)

// upload is one generated MatrixMarket body, split after its header line
// so a request can carry its own comment line without a copy.
type upload struct {
	name         string
	header, rest []byte
}

// body returns the upload with comment (which may be empty) inserted
// after the header.
func (u upload) body(comment []byte) []byte {
	return bytes.Join([][]byte{u.header, comment, u.rest}, nil)
}

// requestComment is request k's MatrixMarket comment line: distinct per
// request, so its content hash misses the plan cache, while the matrix it
// describes is unchanged.
func requestComment(seed int64, k int) []byte {
	return []byte(fmt.Sprintf("%% perfbench seed=%d request=%d\n", seed, k))
}

// uploads generates the named Table V mimics at the evaluation scale from
// seed, as MatrixMarket text.
func uploads(seed int64, shorts ...string) ([]upload, error) {
	var out []upload
	for _, s := range shorts {
		b, ok := gen.ByShort(s)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", s)
		}
		var buf bytes.Buffer
		if err := mm.Write(&buf, b.Build(seed, scale)); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		nl := bytes.IndexByte(data, '\n') + 1
		out = append(out, upload{name: s, header: data[:nl], rest: data[nl:]})
	}
	return out, nil
}

// tableV lists the short names of the ten Table V mimics.
func tableV() []string {
	var out []string
	for _, b := range gen.Benchmarks() {
		out = append(out, b.Short)
	}
	return out
}

// How many times each serve workload starts its daemon; setup_s is the
// median. serve-reuse's set-up includes its warm builds, which are slower
// and steadier than a bare start.
const (
	setupLaunchesCold  = 5
	setupLaunchesReuse = 3
)

// served is one request's outcome as the client saw it.
type served struct {
	upload int // index into the workload's uploads
	lat    time.Duration
	resp   response
	err    error
}

func runServeCold(r *run) error {
	ctx := context.Background()
	ups, err := uploads(r.seed, tableV()...)
	if err != nil {
		return err
	}
	ds, setups, err := launchDaemons(r, setupLaunchesCold, nil)
	if err != nil {
		return err
	}
	defer stopDaemons(r, ds)
	d := ds[len(ds)-1]
	order := rand.New(rand.NewSource(r.seed)).Perm(len(ups))

	// One unmeasured pass first, so the window starts from the daemon's
	// steady state: a grown heap and a full plan cache.
	for u, up := range ups {
		body, n := bodyReader(up.header, []byte("% perfbench warm-up\n"), up.rest)
		if resp, err := d.post("/plan", body, n); err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("warm-up /plan %s: status %d, err %v", ups[u].name, resp.status, err)
		}
	}

	// The measured window: two clients in a closed loop, each request a
	// fresh upload (its own comment line) of the next mimic in order. The
	// first plan served per mimic is kept; later ones are compared with it
	// byte for byte, and kept too only if they differ.
	var mu sync.Mutex
	var reqs []served
	firstBody := map[int][]byte{} // the first request body sent per mimic
	firstPlan := map[int][]byte{}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	before, err := d.stats()
	if err != nil {
		return err
	}
	start := time.Now()
	sent := closedLoop(2, len(ups), r.window, func(k int) {
		u := order[k%len(ups)]
		comment := requestComment(r.seed, k)
		body, n := bodyReader(ups[u].header, comment, ups[u].rest)
		t0 := time.Now()
		resp, err := d.post("/plan", body, n)
		q := served{upload: u, lat: time.Since(t0), resp: resp, err: err}
		mu.Lock()
		defer mu.Unlock()
		if _, ok := firstBody[u]; !ok {
			firstBody[u] = ups[u].body(comment)
		}
		if err == nil && resp.status == http.StatusOK {
			if first, ok := firstPlan[u]; !ok {
				firstPlan[u], q.resp.body = resp.body, nil
			} else if bytes.Equal(first, resp.body) {
				q.resp.body = nil // checked through the first
			}
		}
		reqs = append(reqs, q)
	})
	elapsed := time.Since(start)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	stopDaemons(r, ds)
	_, peakMB := usage(d.cmd)
	passes := float64(sent / len(ups))

	// Checks: every plan decodes and predicts what the in-process
	// pipeline predicts on the same bytes.
	items := make([]item, len(ups))
	for u := range ups {
		items[u] = item{name: ups[u].name, body: firstBody[u]}
	}
	c, err := daemonReplay()
	if err != nil {
		return err
	}
	refs, _, err := replayPass(ctx, c, items, nil)
	if err != nil {
		return err
	}
	var lats []float64
	planOK := map[int]bool{}
	for u, p := range firstPlan {
		planOK[u] = checkPlan(p, refs[u].predicted)
	}
	for _, q := range reqs {
		r.attempted++
		lats = append(lats, float64(q.lat)/1e6)
		name := ups[q.upload].name
		switch {
		case q.err != nil:
			r.fail("POST /plan %s: %v", name, q.err)
		case q.resp.status != http.StatusOK:
			r.fail("POST /plan %s: status %d", name, q.resp.status)
		case q.resp.body != nil && !checkPlan(q.resp.body, refs[q.upload].predicted),
			q.resp.body == nil && !planOK[q.upload]:
			r.fail("POST /plan %s: plan does not decode to the in-process prediction", name)
		}
	}

	r.setE2E("setup_s", "s", median(setups))
	r.setE2E("wall_s", "s", elapsed.Seconds()/passes)
	r.setE2E("cpu_s", "s", (cpu1-cpu0).Seconds()/passes)
	r.setE2E("peak_rss_mb", "MB", peakMB)
	p, v := tail(lats)
	r.setE2E("p50_ms", "ms", median(lats))
	r.setE2E("tail_ms", "ms", v)
	fmt.Fprintf(os.Stderr, "perfbench: serve-cold: %d requests in %.0f passes, tail = p%d\n", sent, passes, p)

	if r.traced {
		st := storeDelta(before, after)
		if st.Builds != int64(sent) {
			r.countMismatch(1, "planstore.builds = %d, want one per request (%d)", st.Builds, sent)
		}
		r.setLayer("httpd.plan_p50_ms", "ms", median(lats))
		return traceServe(ctx, r, c, items, refs, st, median(lats), true)
	}
	return nil
}

// checkPlan decodes a served plan and compares its predicted time with
// the in-process pipeline's, bit for bit.
func checkPlan(data []byte, want float64) bool {
	p, err := hotcore.ReadPlan(bytes.NewReader(data))
	return err == nil && math.Float64bits(p.Partition.Predicted) == math.Float64bits(want)
}

// storeDelta is the plan store's counter movement over the window.
func storeDelta(before, after planstore.Stats) planstore.Stats {
	return planstore.Stats{
		Builds:    after.Builds - before.Builds,
		MemHits:   after.MemHits - before.MemHits,
		DiskHits:  after.DiskHits - before.DiskHits,
		Coalesced: after.Coalesced - before.Coalesced,
		Rejected:  after.Rejected - before.Rejected,
		Evictions: after.Evictions - before.Evictions,
	}
}

// reuseSet is serve-reuse's working set: four Table V mimics whose plans
// (about 40 MB together at scale 64) fit the daemon's default 256 MB
// plan cache.
var reuseSet = []string{"ski", "pok", "wik", "kro"}

// reuseRate is serve-reuse's arrival rate in sessions per second, each
// session a POST /plan cache hit followed by a POST /gnn of the same
// matrix. Two connections in a closed loop complete about 6 sessions/s on
// the 2-core reference machine; at 3/s a session (about 330 ms alone)
// barely finishes before the next is due, so small stalls cascade. 2/s
// keeps the daemon well below saturation.
const reuseRate = 2

// session is one serve-reuse operation as the client saw it.
type session struct {
	upload    int
	plan, gnn served
	hit       bool // the plan returned is the one set-up built
	gnnSHA    string
}

func runServeReuse(r *run) error {
	ctx := context.Background()
	ups, err := uploads(r.seed, reuseSet...)
	if err != nil {
		return err
	}
	// Set-up builds every plan of the working set into the cache.
	plans := make([]response, len(ups))
	warm := func(d *daemon) error {
		for u, up := range ups {
			body, n := bodyReader(up.header, up.rest)
			resp, err := d.post("/plan", body, n)
			if err != nil {
				return fmt.Errorf("warming %s: %w", up.name, err)
			}
			if resp.status != http.StatusOK {
				return fmt.Errorf("warming %s: status %d", up.name, resp.status)
			}
			plans[u] = resp
		}
		return nil
	}
	ds, setups, err := launchDaemons(r, setupLaunchesReuse, warm)
	if err != nil {
		return err
	}
	defer stopDaemons(r, ds)
	d := ds[len(ds)-1]
	order := rand.New(rand.NewSource(r.seed)).Perm(len(ups))

	// One unmeasured pass first, so the window starts from the daemon's
	// steady state (heap size and GC pacing after inference, not after the
	// builds).
	for u, up := range ups {
		body, n := bodyReader(up.header, up.rest)
		if resp, err := d.post(fmt.Sprintf("/gnn?layers=%d", gnnLayers), body, n); err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("warm-up /gnn %s: status %d, err %v", ups[u].name, resp.status, err)
		}
	}

	// The measured window: sessions arrive at a fixed rate over at most
	// two connections.
	interval := time.Second / reuseRate
	sessions := make([]session, openLoopLen(interval, r.window, len(ups)))
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	before, err := d.stats()
	if err != nil {
		return err
	}
	start := time.Now().Add(10 * time.Millisecond)
	sched := openLoop(start, interval, r.window, len(ups), 2, func(j int) {
		u := order[j%len(ups)]
		s := session{upload: u}
		body, n := bodyReader(ups[u].header, ups[u].rest)
		t0 := time.Now()
		s.plan.resp, s.plan.err = d.post("/plan", body, n)
		s.plan.lat = time.Since(t0)
		s.hit = bytes.Equal(s.plan.resp.body, plans[u].body)
		s.plan.resp.body = nil
		body, n = bodyReader(ups[u].header, ups[u].rest)
		t1 := time.Now()
		s.gnn.resp, s.gnn.err = d.post(fmt.Sprintf("/gnn?layers=%d", gnnLayers), body, n)
		s.gnn.lat = time.Since(t1)
		if s.gnn.err == nil && s.gnn.resp.status == http.StatusOK {
			var g struct {
				OutputSHA256 string `json:"output_sha256"`
			}
			if err := json.Unmarshal(s.gnn.resp.body, &g); err != nil {
				s.gnn.err = err
			}
			s.gnnSHA = g.OutputSHA256
		}
		s.gnn.resp.body = nil
		sessions[j] = s
	})
	end := start
	for _, s := range sched {
		if s.done.After(end) {
			end = s.done
		}
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	stopDaemons(r, ds)
	_, peakMB := usage(d.cmd)
	passes := float64(len(sched) / len(ups))

	// Checks: plan hits return the plan set-up built, and every inference
	// equals the in-process forward pass over the same plan and features.
	items := make([]item, len(ups))
	for u, up := range ups {
		items[u] = item{name: up.name, body: up.body(nil)}
	}
	c, err := daemonReplay()
	if err != nil {
		return err
	}
	refs, _, err := replayPass(ctx, c, items, nil)
	if err != nil {
		return err
	}
	var lats, planLats, gnnLats, lates []float64
	for j, s := range sessions {
		name := ups[s.upload].name
		lats = append(lats, float64(sched[j].latency())/1e6)
		lates = append(lates, float64(sched[j].late())/1e6)
		planLats = append(planLats, float64(s.plan.lat+sched[j].late())/1e6)
		gnnLats = append(gnnLats, float64(s.gnn.lat)/1e6)
		r.attempted += 2
		switch {
		case s.plan.err != nil || s.plan.resp.status != http.StatusOK:
			r.fail("POST /plan %s: status %d, err %v", name, s.plan.resp.status, s.plan.err)
		case !s.hit:
			r.fail("POST /plan %s: cache hit differs from the plan set-up built", name)
		}
		switch {
		case s.gnn.err != nil || s.gnn.resp.status != http.StatusOK:
			r.fail("POST /gnn %s: status %d, err %v", name, s.gnn.resp.status, s.gnn.err)
		case s.gnnSHA != refs[s.upload].gnnSHA:
			r.fail("POST /gnn %s: output_sha256 %s, in-process %s", name, s.gnnSHA, refs[s.upload].gnnSHA)
		}
	}
	for u, p := range plans {
		r.attempted++
		if !checkPlan(p.body, refs[u].predicted) {
			r.fail("warm plan %s does not decode to the in-process prediction", ups[u].name)
		}
	}

	r.setE2E("setup_s", "s", median(setups))
	r.setE2E("wall_s", "s", end.Sub(start).Seconds()/passes)
	r.setE2E("cpu_s", "s", (cpu1-cpu0).Seconds()/passes)
	r.setE2E("peak_rss_mb", "MB", peakMB)
	p, v := tail(lats)
	r.setE2E("p50_ms", "ms", median(lats))
	r.setE2E("tail_ms", "ms", v)
	fmt.Fprintf(os.Stderr, "perfbench: serve-reuse: %d sessions at %d/s in %.0f passes, tail = p%d, max late %.1f ms\n",
		len(sched), reuseRate, passes, p, maxOf(lates))

	if r.traced {
		st := storeDelta(before, after)
		if st.Builds != 0 {
			r.countMismatch(1, "planstore.builds = %d during the window, want 0", st.Builds)
		}
		r.setLayer("httpd.plan_p50_ms", "ms", median(planLats))
		r.setLayer("httpd.gnn_p50_ms", "ms", median(gnnLats))
		r.setLayer("loadgen.late_p50_ms", "ms", median(lates))
		r.setLayer("loadgen.late_max_ms", "ms", maxOf(lates))
		return traceServe(ctx, r, c, items, refs, st, median(planLats), false)
	}
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
