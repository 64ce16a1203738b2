// Command perfbench is the repository benchmark. It measures the two
// end-to-end paths of the system as built from the checkout it runs in:
// the reproduction path (the spmmsim study sweep) and the serving path
// (hottilesd answering POST /plan and POST /gnn), on three workloads:
//
//	repro        every spmmsim study, in `spmmsim all` order, at scale 64
//	serve-cold   closed loop, 2 clients, every upload a plan-cache miss
//	serve-reuse  open loop at a fixed rate over a warm plan cache
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with -trace 1 the same run is followed by an
// in-process replay wrapped in spans, and the object carries the
// per-layer metrics instead. See README.md for every metric's definition.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// scale is the matrix scale divisor of every workload: the EXPERIMENTS.md
// evaluation scale.
const scale = 64

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	bin      string // directory holding the spmmsim and hottilesd binaries
	workload string
	seed     int64
	window   time.Duration
	traced   bool

	attempted, failed int
	problems          []string // first failures, for stderr
	e2e               map[string]metric
	layers            map[string]metric
}

// fail records one failed, refused or incorrect operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name, unit string, v float64) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *run) setLayer(name, unit string, v float64) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// endToEnd is every end-to-end metric with its unit, in BENCHMARK.json
// order. Each workload reports all of them, each measured on its own
// operations (see README.md).
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
	{"p50_ms", "ms"}, {"tail_ms", "ms"},
}

// workloads maps each workload name to the function that runs it: the
// measured window, the checks of every output, and r's metrics.
var workloads = map[string]func(r *run) error{
	"repro":       runRepro,
	"serve-cold":  runServeCold,
	"serve-reuse": runServeReuse,
}

func main() {
	bin := flag.String("bin", "", "directory holding the built spmmsim and hottilesd binaries")
	workload := flag.String("workload", "", "repro | serve-cold | serve-reuse")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: follow the run with the traced replay and report per-layer metrics")
	record := flag.Bool("record", false, "repro only: print this seed's study digests as a digests.json entry")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -workload repro|serve-cold|serve-reuse -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if *record {
		if *workload != "repro" {
			fmt.Fprintln(os.Stderr, "perfbench: -record applies to the repro workload")
			os.Exit(2)
		}
		if err := recordDigests(*bin, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r := &run{
		bin:      *bin,
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
	}
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}

	env, err := json.Marshal(map[string]any{"env": environment(r)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(env))
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	want := endToEnd
	if r.traced {
		res.Metrics, want = r.layers, layerMetrics()
	}
	if err := complete(res.Metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// complete checks that got holds exactly the metrics of want, with their
// units.
func complete(got map[string]metric, want [][2]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("reporting %d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		if m, ok := got[w[0]]; !ok || m.Unit != w[1] {
			return fmt.Errorf("metric %s missing or not in %s", w[0], w[1])
		}
	}
	return nil
}

// environment is the record printed with every result: what ran, where,
// and with which settings.
func environment(r *run) map[string]any {
	env := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.window.Seconds(),
		"trace":      r.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"scale":      scale,
	}
	if strings.HasPrefix(r.workload, "serve") {
		env["daemon_flags"] = strings.Join(daemonFlags, " ")
		env["reuse_rate_per_s"] = reuseRate
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit identifies the code under test by a digest of every Go source
// and module file of the checkout, which need not be a repository.
func commit() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
