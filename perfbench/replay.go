package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	hottiles "repro"
	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// item is one input the replay pushes through the layers: an upload body
// (serve workloads) or a suite matrix built by its generator (repro).
type item struct {
	name  string
	body  []byte
	build func() *sparse.COO
}

// replayed is what one item's replay produced: the outputs the checks
// compare against the daemon's, and the values no span carries.
type replayed struct {
	predicted  float64 // the HotTiles plan's predicted time
	plan       []byte  // the encoded plan (serve workloads)
	gnnSHA     string  // SHA-256 of the GNN forward pass output
	nnz        int
	readAllocs uint64 // mm.Read heap allocations
	readBytes  uint64 // mm.Read bytes allocated
	format     time.Duration
	simulated  float64 // simulated time of the plan (timing-only run)
	fnDiff     float64 // functional output vs the reference kernel
	counts     map[string]int64
}

// replayConfig fixes what the replay runs: the architecture, and whether
// items are uploads that take the serving path (hash, parse, encode and
// decode around the pipeline) or generated suite matrices.
type replayConfig struct {
	arch  arch.Arch
	serve bool
}

// replayOpts are the daemon's default pipeline options.
var replayOpts = hotcore.Options{Strategy: hotcore.StrategyHotTiles, OpsPerMAC: 2, Seed: daemonSeed}

// daemonReplay is the replay configuration matching the daemon's defaults.
func daemonReplay() (replayConfig, error) {
	a, err := hottiles.ParseArch(daemonArch)
	return replayConfig{arch: a, serve: true}, err
}

// features is the daemon's deterministic GNN input: seeded uniform values
// in [-1, 1), as POST /gnn builds them.
func features(n, k int, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	f := dense.NewMatrix(n, k)
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

// outputSHA hashes a dense matrix the way POST /gnn reports it.
func outputSHA(m *dense.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayItem pushes one item through every layer, each call wrapped in a
// span under one root span for the item.
func replayItem(ctx context.Context, c replayConfig, it item, tr *tracer) (*replayed, error) {
	out := &replayed{}
	a := c.arch
	cfg := a.Config(replayOpts.OpsPerMAC)
	root := tr.start("item", -1)
	defer tr.end(root)

	var m *sparse.COO
	if c.serve {
		sp := tr.start("httpd.hash", root)
		h := sha256.New()
		fmt.Fprintf(h, "arch=%s\n", daemonArch)
		h.Write(it.body)
		h.Sum(nil)
		tr.end(sp)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sp = tr.start("mm.read", root)
		parsed, err := mm.Read(bytes.NewReader(it.body))
		tr.end(sp)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		m = parsed
		out.readAllocs = ms1.Mallocs - ms0.Mallocs
		out.readBytes = ms1.TotalAlloc - ms0.TotalAlloc
	} else {
		sp := tr.start("gen.matrix", root)
		m = it.build()
		tr.end(sp)
	}
	out.nnz = m.NNZ()

	sp := tr.start("tile.partition", root)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	sp = tr.start("model.estimate", root)
	es, err := partition.NewEstimates(g, &cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	sp = tr.start("partition.hottiles", root)
	_, err = partition.HotTilesFrom(es, cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}

	sp = tr.start("hotcore.preprocess", root)
	prep, err := hotcore.PreprocessCtx(ctx, m, &a, replayOpts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	out.predicted = prep.Partition.Predicted
	out.format = prep.Timing.BaseFormat + prep.Timing.ExtraFormat

	plan := prep
	if c.serve {
		sp = tr.start("hotcore.encode", root)
		var buf bytes.Buffer
		err = hotcore.WritePlan(&buf, prep)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		out.plan = buf.Bytes()
		sp = tr.start("hotcore.decode", root)
		plan, err = hotcore.ReadPlan(bytes.NewReader(out.plan))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
	}
	din := features(plan.Grid.N, a.K, daemonSeed)
	before := obs.Snapshot()
	sp = tr.start("workload.gnn", root)
	res, err := hottiles.RunGNNWithPlan(ctx, plan, &a, din, hottiles.GNNConfig{Layers: gnnLayers, OpsPerMAC: replayOpts.OpsPerMAC})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	out.gnnSHA = outputSHA(res.Output)
	gnnCounts := counterDelta(before, obs.Snapshot())

	part := plan.Partition
	before = obs.Snapshot()
	sp = tr.start("sim.run", root)
	r, err := sim.Run(plan.Grid, part.Hot, &a, nil, sim.Options{Serial: part.Serial, SkipFunctional: true})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	out.simulated = r.Time
	out.counts = counterDelta(before, obs.Snapshot())
	out.counts["workload.gnn.layers"] = gnnCounts["workload.gnn.layers"]

	sp = tr.start("sim.functional", root)
	fr, err := sim.Run(plan.Grid, part.Hot, &a, din, sim.Options{Serial: part.Serial})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	want := dense.NewMatrix(m.N, a.K)
	sp = tr.start("dense.spmm", root)
	err = dense.SpMM(m, din, want)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	if out.fnDiff, err = fr.Output.MaxAbsDiff(want); err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	return out, nil
}

// replayPass replays every item once and returns the outputs and the
// pass's wall time.
func replayPass(ctx context.Context, c replayConfig, items []item, tr *tracer) ([]*replayed, time.Duration, error) {
	t0 := time.Now()
	outs := make([]*replayed, len(items))
	for i, it := range items {
		o, err := replayItem(ctx, c, it, tr)
		if err != nil {
			return nil, 0, err
		}
		outs[i] = o
	}
	return outs, time.Since(t0), nil
}

// countedKeys are the layer counts that must repeat exactly between two
// replays of the same items.
var countedKeys = []string{"sim.engine.runs", "sim.engine.units", "sim.engine.steps", "workload.gnn.layers"}

// countMismatches compares two replays' deterministic counts item by item
// (engine work, GNN layers, encoded plan size) and returns how many
// differ.
func countMismatches(a, b []*replayed) int {
	n := 0
	for i := range a {
		for _, k := range countedKeys {
			if a[i].counts[k] != b[i].counts[k] {
				n++
			}
		}
		if len(a[i].plan) != len(b[i].plan) {
			n++
		}
	}
	return n
}
