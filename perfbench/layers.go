package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/planstore"
	"repro/internal/sparse"
)

// layerMetrics is every per-layer metric with its unit, in BENCHMARK.json
// order. Every traced run reports all of them; a layer the workload never
// reaches reports 0.
func layerMetrics() [][2]string {
	out := [][2]string{
		{"mm.read_ms", "ms"}, {"mm.read_allocs", "count"}, {"mm.read_alloc_mb", "MB"},
		{"tile.partition_ms", "ms"},
		{"model.estimate_ms", "ms"}, {"model.error_pct", "%"},
		{"partition.hottiles_ms", "ms"},
		{"hotcore.preprocess_ms", "ms"}, {"hotcore.format_ms", "ms"},
		{"hotcore.encode_ms", "ms"}, {"hotcore.decode_ms", "ms"}, {"hotcore.plan_bytes_per_nnz", "B/nnz"},
		{"planstore.builds", "count"}, {"planstore.hits", "count"}, {"planstore.coalesced", "count"},
		{"planstore.rejected", "count"}, {"planstore.evictions", "count"}, {"planstore.hit_ratio", "ratio"},
		{"httpd.hash_ms", "ms"}, {"httpd.residual_ms", "ms"},
		{"httpd.plan_p50_ms", "ms"}, {"httpd.gnn_p50_ms", "ms"},
		{"loadgen.late_p50_ms", "ms"}, {"loadgen.late_max_ms", "ms"},
		{"sim.run_ms", "ms"}, {"sim.engine.runs", "count"}, {"sim.engine.units", "count"},
		{"sim.engine.steps", "count"}, {"sim.ns_per_step", "ns"},
		{"sim.functional_ms", "ms"}, {"dense.spmm_ms", "ms"},
		{"workload.gnn_ms", "ms"}, {"workload.gnn.layers", "count"}, {"workload.evolve.replans", "count"},
		{"gen.matrix_ms", "ms"},
	}
	for _, s := range studyOrder {
		out = append(out, [2]string{"experiments." + s + "_s", "s"})
	}
	return append(out,
		[2]string{"obs.trace_overhead_ratio", "ratio"},
		[2]string{"obs.count_mismatches", "count"},
	)
}

// countMismatch flags n counts that should have repeated exactly.
func (r *run) countMismatch(n int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: COUNT MISMATCH: "+format+"\n", args...)
	m := r.layers["obs.count_mismatches"]
	r.setLayer("obs.count_mismatches", "count", m.Value+float64(n))
}

// initLayers reports every per-layer metric as 0 until measured.
func (r *run) initLayers() {
	mismatches := r.layers["obs.count_mismatches"].Value
	for _, m := range layerMetrics() {
		if _, ok := r.layers[m[0]]; !ok {
			r.setLayer(m[0], m[1], 0)
		}
	}
	r.setLayer("obs.count_mismatches", "count", mismatches)
}

// replayLayers runs the traced replay pass over items, compares its
// counts with the untraced pass refs, and reports the layer metrics the
// replay measures. A second untraced pass after the traced one gives the
// tracing overhead; both passes then find the heap already grown by the
// first.
func replayLayers(ctx context.Context, r *run, c replayConfig, items []item, refs []*replayed, tr *tracer) error {
	outs, wallTraced, err := replayPass(ctx, c, items, tr)
	if err != nil {
		return err
	}
	_, wallUntraced, err := replayPass(ctx, c, items, nil)
	if err != nil {
		return err
	}
	if n := countMismatches(refs, outs); n > 0 {
		r.countMismatch(n, "%d replay counts differ between the untraced and traced pass", n)
	}
	self := tr.selfTimes()
	for _, name := range []string{
		"mm.read", "tile.partition", "model.estimate", "partition.hottiles",
		"hotcore.preprocess", "hotcore.encode", "hotcore.decode",
		"httpd.hash", "sim.run", "dense.spmm", "workload.gnn", "gen.matrix",
	} {
		r.setLayer(name+"_ms", "ms", medianSelfMS(self, name))
	}
	var fnExtra, formats, allocs, allocMB, errs []float64
	var planBytes, nnz int
	counts := map[string]int64{}
	for i, o := range outs {
		run, fn := self["sim.run"][i], self["sim.functional"][i]
		fnExtra = append(fnExtra, float64(fn-run)/1e6)
		formats = append(formats, float64(o.format)/1e6)
		allocs = append(allocs, float64(o.readAllocs))
		allocMB = append(allocMB, float64(o.readBytes)/(1<<20))
		errs = append(errs, math.Abs(o.predicted-o.simulated)/o.simulated)
		planBytes += len(o.plan)
		nnz += o.nnz
		for k, v := range o.counts {
			counts[k] += v
		}
		if o.fnDiff > verifyTolerance {
			r.attempted++
			r.fail("replay %s: functional result differs from the reference kernel by %g", items[i].name, o.fnDiff)
		}
	}
	r.setLayer("sim.functional_ms", "ms", median(fnExtra))
	r.setLayer("hotcore.format_ms", "ms", median(formats))
	if c.serve {
		r.setLayer("mm.read_allocs", "count", median(allocs))
		r.setLayer("mm.read_alloc_mb", "MB", median(allocMB))
	}
	r.setLayer("hotcore.plan_bytes_per_nnz", "B/nnz", float64(planBytes)/float64(nnz))
	r.setLayer("model.error_pct", "%", 100*sum(errs)/float64(len(errs)))
	for _, k := range countedKeys {
		r.setLayer(k, "count", float64(counts[k]))
	}
	if steps := counts["sim.engine.steps"]; steps > 0 {
		var simNS float64
		for _, d := range self["sim.run"] {
			simNS += float64(d)
		}
		r.setLayer("sim.ns_per_step", "ns", simNS/float64(steps))
	}
	r.setLayer("obs.trace_overhead_ratio", "ratio", wallTraced.Seconds()/wallUntraced.Seconds())
	return nil
}

// traceServe reports a serve workload's per-layer metrics: the replay of
// its request bodies, the plan store's counters over the window, and the
// HTTP residual — the client-side /plan median minus the in-process cost
// of the same work (hash, parse, preprocess and encode for a build; the
// hash alone for a cache hit).
func traceServe(ctx context.Context, r *run, c replayConfig, items []item, refs []*replayed,
	st planstore.Stats, planP50 float64, builds bool) error {
	r.initLayers()
	tr := newTracer(true)
	if err := replayLayers(ctx, r, c, items, refs, tr); err != nil {
		return err
	}
	// The in-process cost of the daemon's work per request, as the sum of
	// the layer medians, so the layer rows and the residual add up to the
	// /plan median.
	inProc := []string{"httpd.hash"}
	if builds {
		inProc = append(inProc, "mm.read", "hotcore.preprocess", "hotcore.encode")
	}
	residual := planP50
	for _, name := range inProc {
		residual -= r.layers[name+"_ms"].Value
	}
	r.setLayer("httpd.residual_ms", "ms", residual)

	hits := st.MemHits + st.DiskHits
	r.setLayer("planstore.builds", "count", float64(st.Builds))
	r.setLayer("planstore.hits", "count", float64(hits))
	r.setLayer("planstore.coalesced", "count", float64(st.Coalesced))
	r.setLayer("planstore.rejected", "count", float64(st.Rejected))
	r.setLayer("planstore.evictions", "count", float64(st.Evictions))
	if lookups := st.Builds + hits + st.Coalesced + st.Rejected; lookups > 0 {
		r.setLayer("planstore.hit_ratio", "ratio", float64(hits)/float64(lookups))
	}
	return writeTrace(r, tr)
}

// traceRepro reports the repro workload's per-layer metrics: the
// in-process study ledger, then the Table V/VIII suite replayed through
// the layers the studies use.
func traceRepro(ctx context.Context, r *run, ip *inProcess, tr *tracer) error {
	r.initLayers()
	ip.env = nil // the studies' caches are done with; let the replay reuse the memory
	a := suiteArch
	ts := experiments.NewEnv(scale, r.seed).TileSize()
	a.TileH, a.TileW = ts, ts
	c := replayConfig{arch: a}
	var items []item
	for _, b := range append(gen.Benchmarks(), gen.DenseBenchmarks()...) {
		items = append(items, item{name: b.Short, build: func() *sparse.COO { return b.Build(r.seed, scale) }})
	}
	refs, _, err := replayPass(ctx, c, items, nil)
	if err != nil {
		return err
	}
	if err := replayLayers(ctx, r, c, items, refs, tr); err != nil {
		return err
	}
	// The studies, not the replay, supply repro's workload counts and its
	// model.error_pct: Figure 17's mean |error| of HotTiles' predicted
	// against simulated time over both architectures.
	for _, name := range studyOrder {
		r.setLayer("experiments."+name+"_s", "s", ip.walls[name].Seconds())
	}
	r.setLayer("workload.gnn.layers", "count", float64(ip.counterDt["workload.gnn.layers"]))
	r.setLayer("workload.evolve.replans", "count", float64(ip.counterDt["workload.evolve.replans"]))
	r.setLayer("model.error_pct", "%", 100*ip.hotTiles)
	return writeTrace(r, tr)
}

func writeTrace(r *run, tr *tracer) error {
	path, err := tr.write(r.workload, r.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
