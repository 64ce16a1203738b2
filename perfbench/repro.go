package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/obs"
)

// studyOrder is the order `spmmsim all` runs its studies in.
var studyOrder = []string{
	"fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "tab6", "tab7", "tab9",
	"evolve", "gnn", "kernels", "reorder", "vislat",
}

// renderer is what every experiments study result implements.
type renderer interface{ Render(w io.Writer) }

func one[T renderer](v T, err error) ([]renderer, error) {
	if err != nil {
		return nil, err
	}
	return []renderer{v}, nil
}

func many[T renderer](vs []T, err error) ([]renderer, error) {
	if err != nil {
		return nil, err
	}
	out := make([]renderer, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out, nil
}

// studyCalls are the experiments.Env methods behind each spmmsim study.
var studyCalls = map[string]func(ctx context.Context, e *experiments.Env) ([]renderer, error){
	"fig4":    func(_ context.Context, e *experiments.Env) ([]renderer, error) { return many(e.Fig4()) },
	"fig5":    func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig5()) },
	"fig10":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig10()) },
	"fig11":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig11()) },
	"fig12":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig12()) },
	"fig13":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig13()) },
	"fig14":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig14()) },
	"fig15":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return many(e.Fig15()) },
	"fig16":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig16()) },
	"fig17":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig17()) },
	"fig18":   func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Fig18()) },
	"tab6":    func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.TableVI()) },
	"tab7":    func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.TableVII()) },
	"tab9":    func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.TableIX()) },
	"evolve":  func(ctx context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Evolve(ctx)) },
	"gnn":     func(ctx context.Context, e *experiments.Env) ([]renderer, error) { return one(e.GNN(ctx)) },
	"kernels": func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Kernels()) },
	"reorder": func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.Reorder()) },
	"vislat":  func(_ context.Context, e *experiments.Env) ([]renderer, error) { return one(e.VisLat()) },
}

// study is one study's rendered output as the spmmsim child printed it,
// with the wall time between its header and its closing timing line.
type study struct {
	name  string
	lines []string
	wall  time.Duration
}

// sweep is one `spmmsim all` child run.
type sweep struct {
	setup   time.Duration // exec until the first study header
	wall    time.Duration // exec until exit
	cpu     time.Duration // child user+system CPU
	peakMB  float64       // child peak RSS
	studies []study
}

// spmmsimArgs runs every study at the evaluation scale for one seed.
func spmmsimArgs(seed int64) []string {
	return []string{"-scale", strconv.Itoa(scale), "-seed", strconv.FormatInt(seed, 10), "all"}
}

// runSweep runs one spmmsim sweep and splits its stdout into studies,
// timestamping each header and closing line as it streams in.
func runSweep(bin string, seed int64) (*sweep, error) {
	cmd := child(bin+"/spmmsim", spmmsimArgs(seed)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sw := &sweep{}
	var cur *study
	var began time.Time
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line, now := sc.Text(), time.Now()
		if name, ok := studyHeader(line); ok {
			if sw.setup == 0 {
				sw.setup = now.Sub(t0)
			}
			sw.studies = append(sw.studies, study{name: name})
			cur, began = &sw.studies[len(sw.studies)-1], now
			continue
		}
		if cur == nil {
			continue
		}
		if strings.HasPrefix(line, "("+cur.name+" in ") {
			cur.wall = now.Sub(began)
			cur = nil
			continue
		}
		cur.lines = append(cur.lines, line)
	}
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("spmmsim: %w: %s", err, lastLines(stderr.String(), 5))
	}
	sw.wall = time.Since(t0)
	sw.cpu, sw.peakMB = usage(cmd)
	return sw, nil
}

// studyHeader recognizes spmmsim's "==== name ====" study header.
func studyHeader(line string) (string, bool) {
	name, ok := strings.CutPrefix(line, "==== ")
	if !ok {
		return "", false
	}
	name, ok = strings.CutSuffix(name, " ====")
	return name, ok
}

// probeSetup launches spmmsim and measures exec until its first study
// header, then stops the child: the start-up cost alone.
func probeSetup(bin string, seed int64) (time.Duration, error) {
	cmd := child(bin+"/spmmsim", spmmsimArgs(seed)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var setup time.Duration
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if _, ok := studyHeader(sc.Text()); ok {
			setup = time.Since(t0)
			break
		}
	}
	cmd.Process.Kill()
	io.Copy(io.Discard, out)
	cmd.Wait()
	if setup == 0 {
		return 0, fmt.Errorf("spmmsim printed no study header")
	}
	return setup, nil
}

// hostTimedStudy is the one study whose output carries host wall-clock
// measurements: Figure 18's per-matrix preprocessing seconds and the
// average share derived from them. They differ between two runs of the
// same binary and seed, so the digest masks exactly those rows.
const hostTimedStudy = "fig18"

// maskHostRows replaces fig18's host-timed rows (one per Table V matrix,
// plus the average line) by their row label. Every other line, and every
// other study, is digested verbatim.
func maskHostRows(name string, lines []string) []string {
	if name != hostTimedStudy {
		return lines
	}
	shorts := map[string]bool{}
	for _, b := range gen.Benchmarks() {
		shorts[b.Short] = true
	}
	out := slices.Clone(lines)
	for i, l := range out {
		f := strings.Fields(l)
		switch {
		case len(f) == 6 && shorts[f[0]]:
			out[i] = f[0] + " <host-timed>"
		case strings.HasPrefix(l, "average HotTiles share of preprocessing:"):
			out[i] = "average HotTiles share of preprocessing: <host-timed>"
		}
	}
	return out
}

// studyDigest is the first 16 hex digits of the SHA-256 of a study's
// masked output lines.
func studyDigest(name string, lines []string) string {
	h := sha256.New()
	for _, l := range maskHostRows(name, lines) {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recordedDigests holds, per seed, the digest of every study's output at
// the commit that recorded them. Regenerate an entry with
// `run.sh -workload repro -seed N -record`.
//
//go:embed digests.json
var recordedDigestsJSON []byte

func recordedDigests(seed int64) (map[string]string, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &all); err != nil {
		return nil, false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// recordDigests runs one sweep and prints its study digests as a
// digests.json entry for the seed.
func recordDigests(bin string, seed int64) error {
	sw, err := runSweep(bin, seed)
	if err != nil {
		return err
	}
	out, err := json.Marshal(map[string]map[string]string{strconv.FormatInt(seed, 10): sweepDigests(sw)})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// sweepDigests returns the digest of every study of a sweep.
func sweepDigests(sw *sweep) map[string]string {
	d := map[string]string{}
	for _, st := range sw.studies {
		d[st.name] = studyDigest(st.name, st.lines)
	}
	return d
}

// inProcess is the result of running every study in-process.
type inProcess struct {
	env       *experiments.Env
	digests   map[string]string
	walls     map[string]time.Duration
	hotTiles  float64 // Fig17's mean |error| of HotTiles' prediction
	counterDt map[string]int64
}

// runStudiesInProcess calls the experiments.Env study methods in spmmsim's
// order, rendering each to a buffer for its digest.
func runStudiesInProcess(ctx context.Context, seed int64, tr *tracer) (*inProcess, error) {
	ip := &inProcess{
		env:     experiments.NewEnv(scale, seed),
		digests: map[string]string{},
		walls:   map[string]time.Duration{},
	}
	before := obs.Snapshot()
	root := tr.start("experiments", -1)
	for _, name := range studyOrder {
		sp := tr.start("experiments."+name, root)
		t0 := time.Now()
		rs, err := studyCalls[name](ctx, ip.env)
		ip.walls[name] = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var buf bytes.Buffer
		for _, r := range rs {
			r.Render(&buf)
			if f, ok := r.(*experiments.Fig17Result); ok {
				ip.hotTiles = f.AvgError[experiments.StratHotTiles]
			}
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		ip.digests[name] = studyDigest(name, lines)
	}
	tr.end(root)
	ip.counterDt = counterDelta(before, obs.Snapshot())
	return ip, nil
}

// suiteArch is the architecture of the repro workload's functional check
// and suite replay: the daemon's default, spade-sextans:4.
var suiteArch = arch.SpadeSextans(4)

// verifyTolerance bounds the functional result's distance from the
// reference kernel (the repository-wide invariant).
const verifyTolerance = 1e-9

func runRepro(r *run) error {
	ctx := context.Background()
	want, recorded, err := recordedDigests(r.seed)
	if err != nil {
		return err
	}

	var setups []time.Duration
	for range 5 {
		s, err := probeSetup(r.bin, r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	// The measured window: whole sweeps until the window has elapsed, and
	// at least two, so the study latencies always have a tail percentile
	// with ten samples beyond it.
	var sweeps []*sweep
	start := time.Now()
	for len(sweeps) < 2 || time.Since(start) < r.window {
		sw, err := runSweep(r.bin, r.seed)
		if err != nil {
			return err
		}
		sweeps = append(sweeps, sw)
	}

	// The in-process run supplies the reference digests for a seed that
	// has none recorded, and is the traced run's study ledger.
	var ip *inProcess
	tr := newTracer(r.traced)
	if r.traced || !recorded {
		if ip, err = runStudiesInProcess(ctx, r.seed, tr); err != nil {
			return err
		}
		if !recorded {
			want = ip.digests
		}
	}

	var walls, cpus, peaks, studyMS []float64
	for i, sw := range sweeps {
		setups = append(setups, sw.setup)
		walls = append(walls, sw.wall.Seconds())
		cpus = append(cpus, sw.cpu.Seconds())
		peaks = append(peaks, sw.peakMB)
		names := make([]string, len(sw.studies))
		for j, st := range sw.studies {
			names[j] = st.name
		}
		if !slices.Equal(names, studyOrder) {
			r.attempted++
			r.fail("sweep %d ran studies %v, want %v", i, names, studyOrder)
			continue
		}
		got := sweepDigests(sw)
		for _, st := range sw.studies {
			r.attempted++
			studyMS = append(studyMS, float64(st.wall)/1e6)
			if got[st.name] != want[st.name] {
				r.fail("sweep %d: %s output digest %s, want %s (seed %d)", i, st.name, got[st.name], want[st.name], r.seed)
			}
		}
	}

	// After the window: the functional result of every Table V matrix
	// under its HotTiles plan matches the reference kernel.
	env := experiments.NewEnv(scale, r.seed)
	if ip != nil {
		env = ip.env
	}
	for _, b := range gen.Benchmarks() {
		r.attempted++
		diff, err := env.Verify(suiteArch, b)
		if err != nil || diff > verifyTolerance {
			r.fail("verify %s: diff %g, err %v", b.Short, diff, err)
		}
	}

	r.setE2E("setup_s", "s", median(durSeconds(setups)))
	r.setE2E("wall_s", "s", median(walls))
	r.setE2E("cpu_s", "s", median(cpus))
	r.setE2E("peak_rss_mb", "MB", median(peaks))
	p, v := tail(studyMS)
	r.setE2E("p50_ms", "ms", median(studyMS))
	r.setE2E("tail_ms", "ms", v)
	fmt.Fprintf(os.Stderr, "perfbench: repro: %d sweeps, %d study samples, tail = p%d; digests %s\n",
		len(sweeps), len(studyMS), p, map[bool]string{true: "recorded", false: "computed in-process"}[recorded])

	if r.traced {
		return traceRepro(ctx, r, ip, tr)
	}
	return nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// lastLines returns the last n lines of s, for error messages.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
