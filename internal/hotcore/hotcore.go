// Package hotcore implements the HotTiles preprocessing pipeline of the
// paper's Figure 7, as run on the host of the heterogeneous architecture:
// (1) scan the matrix into tiles and feed them to the hot and cold
// performance models, (2) partition the tiles with the HotTiles heuristics,
// and (3) generate the sparse-matrix sections in the compression format
// each worker type consumes (tiled formats for the hot streamers, untiled
// row-ordered formats for the cold workers). PreprocessCtx runs stages 1-2
// and returns the plan; stage 3 is GenerateFormats, run on demand, since
// the formats are derived from the plan and execution does not read them.
// Stage wall-clock timings are recorded for the preprocessing-cost study
// (Figure 18).
package hotcore

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// TileBlock is one tile of a tiled sparse format: its grid coordinates and
// its nonzeros in (row, col) order with global indices.
type TileBlock struct {
	TR, TC int
	Rows   []int32
	Cols   []int32
	Vals   []float64
}

// TiledMatrix is the hot workers' format: the assigned tiles in panel-major
// order, ready for a Figure 6(b) traversal. When CSR is true each block
// additionally carries a per-panel-row pointer array.
type TiledMatrix struct {
	N            int
	TileH, TileW int
	CSR          bool
	Blocks       []TileBlock
	// RowPtr[b] is the CSR row-pointer array of Blocks[b] over its panel's
	// rows (length panelHeight+1, local row ids); nil for COO.
	RowPtr [][]int64
}

// NNZ reports the tiled format's total nonzeros.
func (t *TiledMatrix) NNZ() int {
	n := 0
	for i := range t.Blocks {
		n += len(t.Blocks[i].Vals)
	}
	return n
}

// Timing is the per-stage preprocessing cost breakdown of Figure 18.
// BaseFormat is the cost any accelerator (homogeneous included) pays to
// convert MatrixMarket input into its operating format; the other stages
// are the HotTiles-specific overhead (scan+model, partitioning, and the
// format for the second worker type). The two format stages stay zero until
// GenerateFormats runs.
type Timing struct {
	Scan        time.Duration // tiling + per-tile statistics + model
	Partition   time.Duration // heuristic partitioning
	BaseFormat  time.Duration // format generation for one worker type
	ExtraFormat time.Duration // format generation for the second worker type
}

// Total returns the end-to-end preprocessing time.
func (t Timing) Total() time.Duration {
	return t.Scan + t.Partition + t.BaseFormat + t.ExtraFormat
}

// Overhead returns the HotTiles-specific share of preprocessing (everything
// beyond the single-format cost a homogeneous accelerator already pays).
func (t Timing) Overhead() time.Duration {
	return t.Scan + t.Partition + t.ExtraFormat
}

// Prep is the output of the preprocessing pipeline: the tiling, the
// partitioning decision, and stage timings. Execution reads only these;
// the per-worker-type formats are derived on demand by GenerateFormats.
type Prep struct {
	Grid      *tile.Grid
	Partition partition.Result
	Timing    Timing
}

// Strategy selects how Preprocess assigns tiles.
type Strategy int

const (
	// StrategyHotTiles runs the full four-heuristic HotTiles method.
	StrategyHotTiles Strategy = iota
	// StrategyIUnaware runs the IMH-unaware baseline of §III-B.
	StrategyIUnaware
	// StrategyHotOnly and StrategyColdOnly are the homogeneous executions.
	StrategyHotOnly
	StrategyColdOnly
)

func (s Strategy) String() string {
	switch s {
	case StrategyHotTiles:
		return "HotTiles"
	case StrategyIUnaware:
		return "IUnaware"
	case StrategyHotOnly:
		return "HotOnly"
	case StrategyColdOnly:
		return "ColdOnly"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures the preprocessing pipeline beyond the plain-SpMM
// defaults.
type Options struct {
	Strategy Strategy
	// OpsPerMAC carries the semiring's arithmetic-intensity factor
	// (0 means the plain SpMM value of 2).
	OpsPerMAC float64
	// Kernel selects SpMM (zero value), SpMV or SDDMM (paper §X).
	Kernel model.Kernel
	// Seed feeds IUnaware's random assignment.
	Seed int64
}

// Preprocess runs the Figure 7 pipeline for matrix m on architecture a with
// the given strategy. opsPerMAC carries the semiring's arithmetic-intensity
// factor (2 for plain SpMM). seed feeds IUnaware's random assignment.
func Preprocess(m *sparse.COO, a *arch.Arch, strategy Strategy, opsPerMAC float64, seed int64) (*Prep, error) {
	return PreprocessOpts(m, a, Options{Strategy: strategy, OpsPerMAC: opsPerMAC, Seed: seed})
}

// PreprocessOpts is Preprocess with full kernel control.
func PreprocessOpts(m *sparse.COO, a *arch.Arch, o Options) (*Prep, error) {
	// This is the context-free facade itself: callers who have no ctx land
	// here, and the Background is the documented "no cancellation" root.
	//lint:ignore ctxflow PreprocessOpts is the no-context entry point; everything below threads ctx.
	return PreprocessCtx(context.Background(), m, a, o)
}

// PreprocessCtx is PreprocessOpts with cancellation: ctx is checked at
// every stage boundary (scan, partition), so a caller-side timeout or a
// dropped daemon request abandons the pipeline between stages rather than
// running it to completion. Cancellation granularity is one stage — an
// individual stage, once started, runs to its end on the par pool.
func PreprocessCtx(ctx context.Context, m *sparse.COO, a *arch.Arch, o Options) (*Prep, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if o.OpsPerMAC == 0 {
		o.OpsPerMAC = 2
	}
	strategy := o.Strategy
	seed := o.Seed
	cfg := a.Config(o.OpsPerMAC)
	cfg.Params.Kernel = o.Kernel
	if o.Kernel == model.KernelSpMV {
		cfg.Params.K = 1
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}

	// The request's logger and span ride ctx (nil-safe no-ops when absent):
	// each stage boundary closes a child span on the caller's span tree and
	// leaves a debug line tagged with the request ID, so a daemon post-
	// mortem attributes preprocessing time stage by stage. Both are gated
	// up front: with no consumer attached (the CLI fast path) the attr
	// arguments are never built, keeping preprocessing allocation-free.
	log := obs.CtxLog(ctx)
	parent := obs.CtxSpan(ctx)
	debug := log.Enabled(obs.LogDebug)

	// Stage 1: matrix scan — tiling and per-tile statistics.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp := parent.Start("hotcore.scan")
	if sp != nil {
		sp.SetAttr("nnz", strconv.Itoa(m.NNZ()))
	}
	t0 := time.Now()
	g, err := tile.Partition(m, a.TileH, a.TileW)
	sp.End()
	if err != nil {
		return nil, err
	}
	scan := time.Since(t0)
	if debug {
		log.Debug("hotcore.stage",
			obs.Str("stage", "scan"), obs.Int("tiles", len(g.Tiles)), obs.Str("dur", scan.String()))
	}

	// Stage 2: partitioning heuristic.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp = parent.Start("hotcore.partition")
	t0 = time.Now()
	var res partition.Result
	switch strategy {
	case StrategyHotTiles:
		res, err = partition.HotTiles(g, cfg)
	case StrategyIUnaware:
		res, err = partition.IUnaware(g, cfg, seed)
	case StrategyHotOnly:
		hot := partition.AllHot(g)
		var pred float64
		var tot partition.Totals
		pred, tot, err = partition.Predict(g, &cfg, hot, false)
		res = partition.Result{Hot: hot, Predicted: pred, Totals: tot}
	case StrategyColdOnly:
		cold := partition.AllCold(g)
		var pred float64
		var tot partition.Totals
		pred, tot, err = partition.Predict(g, &cfg, cold, false)
		res = partition.Result{Hot: cold, Predicted: pred, Totals: tot}
	default:
		sp.End()
		return nil, fmt.Errorf("hotcore: unknown strategy %d", int(strategy))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	part := time.Since(t0)
	if debug {
		log.Debug("hotcore.stage",
			obs.Str("stage", "partition"), obs.F64("predicted", res.Predicted), obs.Str("dur", part.String()))
	}

	p := &Prep{Grid: g, Partition: res}
	p.Timing.Scan = scan
	p.Timing.Partition = part
	return p, nil
}

// Formats is stage 3 of Figure 7: the matrix split into the section each
// worker type consumes. Hot is the tiled section for the hot workers (no
// blocks when no tile is hot); Cold the untiled row-ordered section for
// the cold workers (empty when everything is hot). ColdCSR is set instead
// of Cold when the cold worker consumes CSR.
type Formats struct {
	Hot     *TiledMatrix
	Cold    *sparse.COO
	ColdCSR *sparse.CSR
}

// GenerateFormats runs stage 3 of Figure 7 for plan p on architecture a,
// recording its cost in p.Timing.BaseFormat and p.Timing.ExtraFormat. The
// formats are a pure function of p.Grid and p.Partition.Hot, so a plan
// reloaded with ReadPlan regenerates exactly what the in-memory plan would.
// p must come from PreprocessCtx or ReadPlan. Like PreprocessCtx, ctx is
// checked before each of the two format stages.
func GenerateFormats(ctx context.Context, p *Prep, a *arch.Arch) (*Formats, error) {
	g, hot := p.Grid, p.Partition.Hot
	log := obs.CtxLog(ctx)
	parent := obs.CtxSpan(ctx)
	debug := log.Enabled(obs.LogDebug)
	f := &Formats{}

	// Stage 3a: cold (base) format — the untiled row-ordered section.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: format generation canceled: %w", cerr)
	}
	sp := parent.Start("hotcore.baseformat")
	t0 := time.Now()
	cold := Section(g, hot, false)
	if a.Cold.Format == model.FormatCSR {
		f.ColdCSR = sparse.ToCSR(cold)
	} else {
		f.Cold = cold
	}
	sp.End()
	p.Timing.BaseFormat = time.Since(t0)
	if debug {
		log.Debug("hotcore.stage",
			obs.Str("stage", "baseformat"), obs.Str("dur", p.Timing.BaseFormat.String()))
	}

	// Stage 3b: hot (extra) format — the tiled section.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: format generation canceled: %w", cerr)
	}
	sp = parent.Start("hotcore.extraformat")
	t0 = time.Now()
	f.Hot = hotSection(g, hot, a.Hot.Format == model.FormatCSR)
	sp.End()
	p.Timing.ExtraFormat = time.Since(t0)
	if debug {
		log.Debug("hotcore.stage",
			obs.Str("stage", "extraformat"), obs.Str("dur", p.Timing.ExtraFormat.String()))
	}
	return f, nil
}

// Section gathers the nonzeros of the tiles whose assignment equals want
// into a row-major COO (the untiled traversal order of Figure 6(a)):
// want=false is the cold workers' section, want=true the hot tiles' nonzeros
// without their tiling.
func Section(g *tile.Grid, hot []bool, want bool) *sparse.COO {
	m := sparse.NewCOO(g.N, 0)
	for i := range g.Tiles {
		if hot[i] != want {
			continue
		}
		rows, cols, vals := g.TileNonzeros(i)
		m.Rows = append(m.Rows, rows...)
		m.Cols = append(m.Cols, cols...)
		m.Vals = append(m.Vals, vals...)
	}
	m.SortRowMajor()
	return m
}

// hotSection gathers the hot tiles into the tiled format, panel-major.
func hotSection(g *tile.Grid, hot []bool, csr bool) *TiledMatrix {
	t := &TiledMatrix{N: g.N, TileH: g.TileH, TileW: g.TileW, CSR: csr}
	for i := range g.Tiles {
		if !hot[i] {
			continue
		}
		tl := &g.Tiles[i]
		rows, cols, vals := g.TileNonzeros(i)
		b := TileBlock{
			TR:   tl.TR,
			TC:   tl.TC,
			Rows: append([]int32(nil), rows...),
			Cols: append([]int32(nil), cols...),
			Vals: append([]float64(nil), vals...),
		}
		t.Blocks = append(t.Blocks, b)
		if csr {
			lo, hi := g.PanelRows(tl.TR)
			ptr := make([]int64, hi-lo+1)
			for _, r := range rows {
				ptr[int(r)-lo+1]++
			}
			for j := 0; j < len(ptr)-1; j++ {
				ptr[j+1] += ptr[j]
			}
			t.RowPtr = append(t.RowPtr, ptr)
		} else {
			t.RowPtr = append(t.RowPtr, nil)
		}
	}
	return t
}

// Validate checks the plan's structural invariants: a valid grid and one
// assignment bit per tile. It must never panic, whatever the field values —
// ReadPlan runs it on gob-decoded data from disk, where truncation or bit
// rot can produce a structurally arbitrary Prep.
func (p *Prep) Validate() error {
	if p.Grid == nil {
		return fmt.Errorf("hotcore: plan has no grid")
	}
	if err := p.Grid.Validate(); err != nil {
		return fmt.Errorf("hotcore: grid invalid: %w", err)
	}
	if len(p.Partition.Hot) != len(p.Grid.Tiles) {
		return fmt.Errorf("hotcore: assignment length %d, grid has %d tiles",
			len(p.Partition.Hot), len(p.Grid.Tiles))
	}
	return nil
}
