package hottiles

import (
	"encoding/json"
	"os"
	"testing"
)

// benchBaseline is the committed BENCH_*.json this PR's guards read; bump it
// together with BENCH_PR in the Makefile when a new baseline lands.
const benchBaseline = "BENCH_12.json"

// TestFanoutParity guards against the parallel/serial inversion that
// BENCH_8.json recorded for BenchmarkExperimentsFanout (parallel 231ms vs
// serial 201ms): the inversion was a measurement artifact — the second
// sub-benchmark inherited the first one's heap and GC-pacing state — fixed
// by giving each variant a freshly collected heap. The committed baseline
// must never show the parallel variant meaningfully slower than serial
// again: on multi-core machines it should win outright, and on a single
// core the two variants execute identical work, so anything beyond the
// noise bound means the fan-out path itself regressed.
func TestFanoutParity(t *testing.T) {
	data, err := os.ReadFile(benchBaseline)
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var f struct {
		Benchmarks map[string]struct {
			NsOp float64 `json:"ns_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parsing %s: %v", benchBaseline, err)
	}
	serial, okS := f.Benchmarks["BenchmarkExperimentsFanout/serial"]
	parallel, okP := f.Benchmarks["BenchmarkExperimentsFanout/parallel"]
	if !okS || !okP {
		t.Fatalf("%s is missing the BenchmarkExperimentsFanout variants", benchBaseline)
	}
	if serial.NsOp <= 0 {
		t.Fatalf("nonsensical serial baseline %v ns/op", serial.NsOp)
	}
	// 1.15x absorbs run-to-run noise on an otherwise idle single core; a
	// genuine pool regression (oversubscription, singleflight contention)
	// shows up as a multiple, not percents.
	const noise = 1.15
	if parallel.NsOp > serial.NsOp*noise {
		t.Fatalf("baseline inversion: parallel %v ns/op > serial %v ns/op × %v — "+
			"the fan-out path regressed; re-measure with `make bench` on a quiet "+
			"machine and investigate before committing a new baseline",
			parallel.NsOp, serial.NsOp, noise)
	}
}
