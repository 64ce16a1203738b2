// Package hottiles is a from-scratch Go reproduction of "HotTiles:
// Accelerating SpMM with Heterogeneous Accelerator Architectures"
// (Gerogiannis et al., HPCA 2024).
//
// It provides the paper's full stack as a library:
//
//   - sparse/dense matrix substrates with MatrixMarket IO and synthetic
//     generators mimicking the paper's SuiteSparse benchmark suites;
//   - the IMH-aware analytical performance model (paper §IV) and the four
//     HotTiles partitioning heuristics plus the IUnaware baseline (§V,
//     §III-B);
//   - the Figure 7 preprocessing pipeline producing the tiling and the
//     hot/cold decision that execution reads;
//   - a fluid event-driven simulator of the three evaluated heterogeneous
//     architectures (SPADE-Sextans, SPADE-Sextans+PCIe, PIUMA) that also
//     executes SpMM functionally;
//   - vis_lat calibration (§VI-B) and iso-scale architecture exploration
//     (§VIII-B).
//
// The typical flow is: build or load a sparse matrix, pick an architecture,
// Partition it, then Simulate:
//
//	m, _ := hottiles.ReadMatrixMarket(f)
//	a := hottiles.SpadeSextans(4)
//	plan, _ := hottiles.Partition(m, &a, hottiles.StrategyHotTiles, 2, 0)
//	res, _ := hottiles.Simulate(plan, &a, din, hottiles.SimOptions{})
//
// The runnable examples under examples/ and the experiment harness behind
// cmd/spmmsim build on exactly this API.
package hottiles

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/calib"
	"repro/internal/dense"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/hotcore"
	"repro/internal/mm"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// Core data types, re-exported from the internal substrates.
type (
	// Matrix is a square sparse matrix in row-major COO form.
	Matrix = sparse.COO
	// CSRMatrix is the compressed-sparse-row form consumed by the PIUMA
	// workers.
	CSRMatrix = sparse.CSR
	// Dense is a row-major N×K dense matrix (Din / Dout).
	Dense = dense.Matrix
	// Arch describes a heterogeneous accelerator architecture.
	Arch = arch.Arch
	// Worker is one PE type's model description (paper Table III traits).
	Worker = model.Worker
	// Grid is a tiling of a sparse matrix with per-tile statistics.
	Grid = tile.Grid
	// Plan is the output of the preprocessing pipeline (paper Figure 7):
	// the tiling and the hot/cold decision, without the per-worker formats.
	Plan = hotcore.Prep
	// Strategy selects the partitioning method.
	Strategy = hotcore.Strategy
	// PartitionResult is a partitioning decision with its predicted runtime.
	PartitionResult = partition.Result
	// Heuristic identifies one of the four HotTiles subproblems (Table II).
	Heuristic = partition.Heuristic
	// Semiring is a gSpMM algebra.
	Semiring = semiring.Semiring
	// SimOptions configures a simulated execution.
	SimOptions = sim.Options
	// SimResult reports a simulated execution.
	SimResult = sim.Result
	// UnitCache memoizes built simulator work-unit pools across Simulate
	// calls that revisit a (plan, architecture) combination — set it as
	// SimOptions.Units when sweeping (GNN layers and batches do this
	// internally already).
	UnitCache = sim.UnitCache
	// Benchmark describes one matrix of the paper's suites (Tables V/VIII).
	Benchmark = gen.Benchmark
	// CalibrationReport describes one vis_lat fit (paper §VI-B).
	CalibrationReport = calib.Report
	// IsoScaleEntry is one architecture point of the §VIII-B exploration.
	IsoScaleEntry = explore.Entry
)

// Partitioning strategies.
const (
	StrategyHotTiles = hotcore.StrategyHotTiles
	StrategyIUnaware = hotcore.StrategyIUnaware
	StrategyHotOnly  = hotcore.StrategyHotOnly
	StrategyColdOnly = hotcore.StrategyColdOnly
)

// Kernel selects which sparse kernel is modeled, partitioned and simulated
// (paper §X: HotTiles applies to SpMV and SDDMM as well as SpMM).
type Kernel = model.Kernel

// Supported kernels.
const (
	KernelSpMM  = model.KernelSpMM
	KernelSpMV  = model.KernelSpMV
	KernelSDDMM = model.KernelSDDMM
)

// PartitionOptions configures PartitionWith beyond the plain-SpMM defaults.
type PartitionOptions = hotcore.Options

// The four HotTiles heuristics (paper Table II).
const (
	MinTimeParallel = partition.MinTimeParallel
	MinTimeSerial   = partition.MinTimeSerial
	MinByteParallel = partition.MinByteParallel
	MinByteSerial   = partition.MinByteSerial
)

// Architecture presets (paper §VI-A).
var (
	// SpadeSextans returns the on-die SPADE+Sextans architecture at a
	// Table IV system scale (1, 2, 4 or 8).
	SpadeSextans = arch.SpadeSextans
	// SpadeSextansSkewed returns the c-h iso-scale variants of §VIII-B.
	SpadeSextansSkewed = arch.SpadeSextansSkewed
	// SpadeSextansPCIe returns the off-die enhanced-Sextans architecture.
	SpadeSextansPCIe = arch.SpadeSextansPCIe
	// PIUMA returns the MTP+STP architecture with its atomic engine.
	PIUMA = arch.PIUMA
	// CPUDSA returns the §X future-work CPU + streaming-accelerator system.
	CPUDSA = arch.CPUDSA
)

// Semirings for gSpMM (paper §II-A).
var (
	PlusTimes      = semiring.PlusTimes
	MinPlus        = semiring.MinPlus
	MaxPlus        = semiring.MaxPlus
	BoolOrAnd      = semiring.BoolOrAnd
	ScaledSemiring = semiring.Scaled
)

// Benchmark suites (paper Tables V and VIII).
var (
	Benchmarks       = gen.Benchmarks
	DenseBenchmarks  = gen.DenseBenchmarks
	BenchmarkByShort = gen.ByShort
)

// ReadMatrixMarket parses a MatrixMarket coordinate stream into a row-major
// deduplicated Matrix (symmetric inputs are expanded).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return mm.Read(r) }

// WriteMatrixMarket writes m as a general real coordinate MatrixMarket
// stream.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return mm.Write(w, m) }

// NewDense returns an N×K zero dense matrix.
func NewDense(n, k int) *Dense { return dense.NewMatrix(n, k) }

// Partition runs the Figure 7 preprocessing pipeline: tile the matrix, model
// every tile for both worker types, and partition with the chosen strategy.
// The plan holds the tiling and the decision; the per-worker-type formats
// are derived from it and not stored. opsPerMAC carries the semiring's
// arithmetic-intensity factor (2 = plain SpMM); seed feeds IUnaware's random
// assignment.
func Partition(m *Matrix, a *Arch, strategy Strategy, opsPerMAC float64, seed int64) (*Plan, error) {
	return hotcore.Preprocess(m, a, strategy, opsPerMAC, seed)
}

// PartitionWith is Partition with full kernel control (SpMV, SDDMM).
func PartitionWith(m *Matrix, a *Arch, o PartitionOptions) (*Plan, error) {
	return hotcore.PreprocessOpts(m, a, o)
}

// Simulate executes a Plan on its architecture with the fluid event-driven
// simulator, returning timing, traffic, utilization statistics and (unless
// opts.SkipFunctional) the numeric SpMM result.
func Simulate(p *Plan, a *Arch, din *Dense, opts SimOptions) (*SimResult, error) {
	if p == nil || p.Grid == nil {
		return nil, fmt.Errorf("hottiles: nil plan")
	}
	if opts.Serial && a.AtomicRMW {
		return nil, fmt.Errorf("hottiles: %s always runs its pools in parallel", a.Name)
	}
	return sim.Run(p.Grid, p.Partition.Hot, a, din, opts)
}

// Reference computes A·Din with the golden kernel (fresh output buffer).
func Reference(m *Matrix, din *Dense) (*Dense, error) {
	out := dense.NewMatrix(m.N, din.K)
	if err := dense.SpMM(m, din, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReferenceSpMV computes y = A·x with the golden SpMV kernel.
func ReferenceSpMV(m *Matrix, x []float64) ([]float64, error) {
	y := make([]float64, m.N)
	if err := dense.SpMV(m, x, y); err != nil {
		return nil, err
	}
	return y, nil
}

// ReferenceSDDMM computes the sampled dense-dense product: one value per
// nonzero of m, out[i] = m.Vals[i] · ⟨U[r,:], V[c,:]⟩.
func ReferenceSDDMM(m *Matrix, u, v *Dense) ([]float64, error) {
	return dense.SDDMM(m, u, v)
}

// GReference computes the gSpMM product over an arbitrary semiring.
func GReference(m *Matrix, din *Dense, s Semiring) (*Dense, error) {
	out := dense.NewFilled(m.N, din.K, s.AddIdentity)
	if err := dense.GSpMM(m, din, out, s); err != nil {
		return nil, err
	}
	return out, nil
}

// Calibrate fits the vis_lat parameter of both worker types of a from
// homogeneous profiling runs on the given matrices (paper §VI-B), updating
// a in place.
func Calibrate(a *Arch, mats []*Matrix) ([]CalibrationReport, error) {
	return calib.Calibrate(a, mats)
}

// IsoScaleExplore evaluates the nine skewed SPADE-Sextans architectures
// (coldScale+hotScale == total) on matrix m, returning predicted and
// simulated runtimes per architecture (paper §VIII-B).
func IsoScaleExplore(m *Matrix, total, tileSize int) ([]IsoScaleEntry, error) {
	return explore.IsoScale(m, total, tileSize)
}

// Permutation is a symmetric relabeling of matrix rows/columns.
type Permutation = reorder.Permutation

// AutoTileResult reports one candidate of the tile-size search.
type AutoTileResult = hotcore.AutoTileResult

// Reordering passes (paper §IX-D / §X: reordering increases HotTiles'
// effectiveness by forming better-defined dense and sparse regions).
var (
	// ReorderDegreeSort relabels vertices by descending degree,
	// concentrating hubs in the top-left corner.
	ReorderDegreeSort = reorder.DegreeSort
	// ReorderBFSCluster relabels vertices in BFS order from a
	// pseudo-peripheral seed, pulling communities toward the diagonal.
	ReorderBFSCluster = reorder.BFSCluster
	// ReorderRandom returns a random permutation (the ablation control).
	ReorderRandom = reorder.Random
	// ApplyReorder computes P·A·Pᵀ.
	ApplyReorder = reorder.Apply
)

// AutoTileSize evaluates candidate square tile sizes and returns the one
// with the lowest HotTiles-predicted runtime (the free-dimension sizing of
// paper §IV), plus the per-candidate sweep.
func AutoTileSize(m *Matrix, a *Arch, candidates []int, opsPerMAC float64) (int, []AutoTileResult, error) {
	return hotcore.AutoTileSize(m, a, candidates, opsPerMAC)
}

// WritePlan serializes a preprocessing plan so it can be stored and reused
// without re-running the pipeline — the paper's GNN train-once/infer-many
// workflow (§VI-B).
func WritePlan(w io.Writer, p *Plan) error { return hotcore.WritePlan(w, p) }

// ReadPlan loads a plan written by WritePlan, revalidating its invariants.
func ReadPlan(r io.Reader) (*Plan, error) { return hotcore.ReadPlan(r) }

// PartitionCtx is PartitionWith with context cancellation: the pipeline
// checks ctx at each stage boundary, so a canceled caller (a timed-out
// hottilesd request, an interrupted batch job) stops paying for the scan,
// model and partition stages it no longer needs.
func PartitionCtx(ctx context.Context, m *Matrix, a *Arch, o PartitionOptions) (*Plan, error) {
	return hotcore.PreprocessCtx(ctx, m, a, o)
}

// ParseArch resolves the CLI spelling of an architecture preset:
// "spade-sextans[:scale]", "spade-sextans-pcie", "piuma" or "cpu-dsa". The
// hottiles CLI and the hottilesd daemon share this one vocabulary.
func ParseArch(name string) (Arch, error) {
	switch {
	case name == "piuma":
		return PIUMA(), nil
	case name == "cpu-dsa":
		return CPUDSA(), nil
	case name == "spade-sextans-pcie":
		return SpadeSextansPCIe(), nil
	case strings.HasPrefix(name, "spade-sextans"):
		scale := 4
		if i := strings.IndexByte(name, ':'); i >= 0 {
			if _, err := fmt.Sscanf(name[i+1:], "%d", &scale); err != nil {
				return Arch{}, fmt.Errorf("hottiles: bad scale in %q", name)
			}
		}
		return SpadeSextans(scale), nil
	default:
		return Arch{}, fmt.Errorf("hottiles: unknown architecture %q", name)
	}
}

// ParseStrategy resolves the CLI spelling of a partitioning strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "hottiles":
		return StrategyHotTiles, nil
	case "iunaware":
		return StrategyIUnaware, nil
	case "hotonly":
		return StrategyHotOnly, nil
	case "coldonly":
		return StrategyColdOnly, nil
	default:
		return 0, fmt.Errorf("hottiles: unknown strategy %q", s)
	}
}

// ParseKernel resolves the CLI spelling of a sparse kernel.
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "spmm":
		return KernelSpMM, nil
	case "spmv":
		return KernelSpMV, nil
	case "sddmm":
		return KernelSDDMM, nil
	default:
		return 0, fmt.Errorf("hottiles: unknown kernel %q", s)
	}
}
