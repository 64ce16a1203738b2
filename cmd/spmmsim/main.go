// Command spmmsim regenerates the paper's evaluation artifacts: every
// figure and table of §VIII on the scaled synthetic benchmark suite.
//
// Usage:
//
//	spmmsim [-scale N] [-seed S] fig4 fig5 fig10 fig11 fig12 fig13 fig14 \
//	        fig15 fig16 fig17 fig18 tab6 tab7 tab9 | all
//
// The -scale flag divides the paper's matrix sizes (DESIGN.md §2); 64 runs
// the full evaluation in minutes on a laptop.
package main

import (
	"bytes"
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
)

type runner func(ctx context.Context, e *experiments.Env, w io.Writer) error

// studyWallHist records each experiment's end-to-end wall time.
var studyWallHist = obs.NewHistogram("spmmsim.study.wall.ns")

func main() {
	scale := flag.Int("scale", 64, "matrix scale divisor (paper sizes / scale)")
	seed := flag.Int64("seed", 1, "generator seed")
	workers := flag.Int("par", 0, "worker-pool size for the parallel engine (0 = GOMAXPROCS, 1 = serial)")
	tracePath := flag.String("trace", "", `write a JSON run manifest to this path ("-" prints a summary)`)
	timelinePath := flag.String("timeline", "", `write a Chrome trace-event timeline (Perfetto) to this path ("-" prints a per-track summary)`)
	debugAddr := flag.String("debug-addr", "", "serve the live debug endpoint (pprof, /metrics, /progress) on this address, e.g. :6060")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	logSpec := flag.String("log", "info:text", "diagnostic log level and format: level[:format], e.g. debug, warn:json")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	logOpts, err := obs.ParseLogFlag(*logSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmsim:", err)
		os.Exit(2)
	}
	logger = obs.NewLogger(os.Stderr, logOpts)
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	par.SetWorkers(*workers)
	e := experiments.NewEnv(*scale, *seed)
	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = allNames()
	}

	// Any observability consumer turns on the deep-timing clock reads that
	// feed the per-tile, per-step, and cache-lookup histograms, and gets a
	// tracer: its spans are what the manifest, the timeline's wall-clock
	// rows, and /progress all read. Without one every span call below
	// degrades to a nil check.
	observed := *tracePath != "" || *timelinePath != "" || *debugAddr != ""
	obs.SetDeepTiming(observed)
	var tr *obs.Tracer
	if observed {
		tr = obs.New("spmmsim")
		tr.SetConfig("scale", fmt.Sprint(*scale))
		tr.SetConfig("seed", fmt.Sprint(*seed))
		tr.SetConfig("par", fmt.Sprint(*workers))
		tr.SetConfig("experiments", strings.Join(names, ","))
		e.SetTracer(tr)
	}
	var tl *obs.Timeline
	if *timelinePath != "" {
		tl = obs.NewTimeline(0)
		e.SetTimeline(tl)
		par.SetTimeline(tl)
	}
	if *debugAddr != "" {
		addr, stop, err := obs.ServeDebug(*debugAddr, tr)
		if err != nil {
			fail(err)
		}
		defer stop()
		logger.Info("spmmsim.debug.listen", obs.Str("addr", addr))
	}

	// The process-root context: everything below the experiments facade
	// inherits it (the ctxflow analyzer keeps internal code from minting
	// its own).
	ctx := context.Background()

	for _, name := range names {
		if _, ok := table[name]; !ok {
			fmt.Fprintf(os.Stderr, "spmmsim: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		// Render through a buffer so the manifest can hash exactly the bytes
		// the user saw for this experiment.
		var buf bytes.Buffer
		var w io.Writer = os.Stdout
		if *tracePath != "" {
			w = io.MultiWriter(os.Stdout, &buf)
		}
		if err := runStudy(ctx, tr, e, name, w); err != nil {
			logger.Error("spmmsim.study.fail",
				obs.Str("study", name), obs.Str("err", err.Error()))
			os.Exit(1)
		}
		tr.AddOutput(name, buf.Bytes())
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *tracePath != "" {
		if err := obs.WriteTrace(tr, *tracePath, os.Stdout); err != nil {
			fail(err)
		}
		if *tracePath != "-" {
			fmt.Printf("wrote run manifest to %s\n", *tracePath)
		}
	}
	if *timelinePath != "" {
		if err := obs.WriteTimeline(tl, tr, *timelinePath, os.Stdout); err != nil {
			fail(err)
		}
		if *timelinePath != "-" {
			fmt.Printf("wrote timeline to %s (load in ui.perfetto.dev)\n", *timelinePath)
		}
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// runStudy runs one experiment under its span on the tracer's root (nil
// when unobserved), which also rides ctx so the study's own spans (GNN
// layers, evolve steps, preprocessing stages) nest under it.
func runStudy(ctx context.Context, tr *obs.Tracer, e *experiments.Env, name string, w io.Writer) error {
	sp := tr.Root().Start(name)
	defer sp.End()
	defer studyWallHist.ObserveSince(time.Now())
	return table[name](obs.WithSpan(ctx, sp), e, w)
}

// logger is the CLI's diagnostic stream (stderr; stdout stays the study
// output). main replaces it once the -log flag is parsed.
var logger *obs.Logger

// fail logs a fatal error as a structured line and exits. Before flag
// parsing installs the logger, fall back to plain stderr.
func fail(err error) {
	if logger == nil {
		fmt.Fprintln(os.Stderr, "spmmsim:", err)
		os.Exit(1)
	}
	logger.Error("spmmsim.fatal", obs.Str("err", err.Error()))
	os.Exit(1)
}

var table = map[string]runner{
	"fig4": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		studies, err := e.Fig4()
		if err != nil {
			return err
		}
		for _, st := range studies {
			st.Render(w)
		}
		return nil
	},
	"fig5": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig5()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"fig10": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		st, err := e.Fig10()
		if err != nil {
			return err
		}
		st.Render(w)
		return nil
	},
	"fig11": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		st, err := e.Fig11()
		if err != nil {
			return err
		}
		st.Render(w)
		return nil
	},
	"fig12": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig12()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"fig13": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig13()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"fig14": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig14()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"fig15": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		studies, err := e.Fig15()
		if err != nil {
			return err
		}
		for _, st := range studies {
			st.Render(w)
		}
		return nil
	},
	"fig16": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig16()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"fig17": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig17()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"fig18": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		f, err := e.Fig18()
		if err != nil {
			return err
		}
		f.Render(w)
		return nil
	},
	"tab6": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		t, err := e.TableVI()
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	},
	"tab7": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		t, err := e.TableVII()
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	},
	"tab9": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		t, err := e.TableIX()
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	},
	// Beyond the paper: the §IX-D/§X reordering ablation.
	"reorder": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		r, err := e.Reorder()
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	// Beyond the paper: §X's SpMV and SDDMM kernels on the suite.
	"kernels": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		k, err := e.Kernels()
		if err != nil {
			return err
		}
		k.Render(w)
		return nil
	},
	// Beyond the paper: robustness of the partitioning to vis_lat
	// miscalibration (DESIGN.md §8).
	"vislat": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		v, err := e.VisLat()
		if err != nil {
			return err
		}
		v.Render(w)
		return nil
	},
	// Beyond the paper: the §VI-B multi-layer GNN inference loop, one plan
	// amortized across layers (DESIGN.md §15).
	"gnn": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		g, err := e.GNN(ctx)
		if err != nil {
			return err
		}
		g.Render(w)
		return nil
	},
	// Beyond the paper: evolving graphs with the model-driven re-plan
	// trigger — the staleness-vs-re-plan-cost sweep (DESIGN.md §15).
	"evolve": func(ctx context.Context, e *experiments.Env, w io.Writer) error {
		s, err := e.Evolve(ctx)
		if err != nil {
			return err
		}
		s.Render(w)
		return nil
	},
}

func allNames() []string {
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	slices.SortFunc(names, func(a, b string) int {
		// figNN before tabN (numerically), extras last alphabetically.
		if ka, kb := orderKey(a), orderKey(b); ka != kb {
			return cmp.Compare(ka, kb)
		}
		return strings.Compare(a, b)
	})
	return names
}

func orderKey(n string) int {
	var num int
	if _, err := fmt.Sscanf(n, "fig%d", &num); err == nil {
		return num
	}
	if _, err := fmt.Sscanf(n, "tab%d", &num); err == nil {
		return 100 + num
	}
	return 1000
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: spmmsim [-scale N] [-seed S] <experiment>...

experiments: %v
or "all" to run everything.
`, allNames())
	flag.PrintDefaults()
}
