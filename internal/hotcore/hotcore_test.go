package hotcore

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/sparse"
)

func testMatrix(t testing.TB, seed int64, n, blockN, blockNNZ, bgNNZ int) *sparse.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := sparse.NewCOO(n, blockNNZ+bgNNZ)
	for i := 0; i < blockNNZ; i++ {
		m.Append(int32(rng.Intn(blockN)), int32(rng.Intn(blockN)), rng.Float64()+0.5)
	}
	for i := 0; i < bgNNZ; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64()+0.5)
	}
	m.SortRowMajor()
	m.DedupSum()
	return m
}

// formats runs GenerateFormats on p, failing the test on error.
func formats(t testing.TB, p *Prep, a *arch.Arch) *Formats {
	t.Helper()
	f, err := GenerateFormats(context.Background(), p, a)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// smallArch returns a SPADE-Sextans-like architecture with a tile size that
// suits the small test matrices.
func smallArch() arch.Arch {
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = 64, 64
	return a
}

func TestPreprocessHotTilesPartitionsMatrix(t *testing.T) {
	m := testMatrix(t, 1, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	f := formats(t, p, &a)
	if f.Hot.NNZ() == 0 {
		t.Fatal("expected some hot tiles for a matrix with a dense block")
	}
	if f.Cold == nil || f.Cold.NNZ() == 0 {
		t.Fatal("expected some cold nonzeros")
	}
	if f.Cold.NNZ()+f.Hot.NNZ() != m.NNZ() {
		t.Fatal("sections do not partition the matrix")
	}
	// SPADE-Sextans consumes COO on both sides.
	if f.ColdCSR != nil || f.Hot.CSR {
		t.Fatal("wrong formats for SPADE-Sextans")
	}
}

func TestPreprocessPIUMACSRFormats(t *testing.T) {
	m := testMatrix(t, 2, 512, 64, 3000, 1500)
	a := arch.PIUMA()
	a.TileH, a.TileW = 64, 64
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	f := formats(t, p, &a)
	if f.ColdCSR == nil || f.Cold != nil {
		t.Fatal("PIUMA cold section must be CSR")
	}
	if !f.Hot.CSR {
		t.Fatal("PIUMA hot section must be tiled CSR")
	}
	for b, ptr := range f.Hot.RowPtr {
		if len(ptr) != 64+1 && f.Hot.Blocks[b].TR != p.Grid.NumTR-1 {
			t.Fatalf("block %d row pointer length %d", b, len(ptr))
		}
	}
}

func TestPreprocessStrategies(t *testing.T) {
	m := testMatrix(t, 3, 256, 32, 1000, 800)
	a := smallArch()
	for _, s := range []Strategy{StrategyHotTiles, StrategyIUnaware, StrategyHotOnly, StrategyColdOnly} {
		p, err := Preprocess(m, &a, s, 2, 11)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		f := formats(t, p, &a)
		switch s {
		case StrategyHotOnly:
			if f.Cold.NNZ() != 0 {
				t.Fatalf("HotOnly left %d cold nonzeros", f.Cold.NNZ())
			}
		case StrategyColdOnly:
			if f.Hot.NNZ() != 0 {
				t.Fatalf("ColdOnly assigned %d hot nonzeros", f.Hot.NNZ())
			}
		}
		if p.Partition.Predicted <= 0 {
			t.Fatalf("%v: non-positive prediction", s)
		}
	}
	if _, err := Preprocess(m, &a, Strategy(42), 2, 0); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyHotTiles: "HotTiles", StrategyIUnaware: "IUnaware",
		StrategyHotOnly: "HotOnly", StrategyColdOnly: "ColdOnly",
	}
	for s, w := range names {
		if s.String() != w {
			t.Errorf("%d: %s", int(s), s.String())
		}
	}
	if Strategy(9).String() == "" {
		t.Error("fallback empty")
	}
}

func TestPreprocessValidation(t *testing.T) {
	a := smallArch()
	bad := sparse.NewCOO(4, 1)
	bad.Append(9, 0, 1) // out of range
	if _, err := Preprocess(bad, &a, StrategyHotTiles, 2, 0); err == nil {
		t.Fatal("expected matrix validation error")
	}
	m := testMatrix(t, 4, 128, 16, 200, 100)
	badArch := smallArch()
	badArch.BWBytes = 0
	if _, err := Preprocess(m, &badArch, StrategyHotTiles, 2, 0); err == nil {
		t.Fatal("expected arch validation error")
	}
}

func TestTimingBreakdown(t *testing.T) {
	m := testMatrix(t, 5, 512, 64, 4000, 2000)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Timing.BaseFormat != 0 || p.Timing.ExtraFormat != 0 {
		t.Fatal("Preprocess recorded format stages it does not run")
	}
	formats(t, p, &a)
	tm := p.Timing
	if tm.Total() <= 0 || tm.BaseFormat <= 0 || tm.ExtraFormat <= 0 {
		t.Fatal("no preprocessing time recorded")
	}
	if tm.Total() != tm.Scan+tm.Partition+tm.BaseFormat+tm.ExtraFormat {
		t.Fatal("Total() is not the sum of stages")
	}
	if tm.Overhead() != tm.Scan+tm.Partition+tm.ExtraFormat {
		t.Fatal("Overhead() wrong")
	}
}

// TestFunctionalEquivalence is the pipeline's core integration invariant:
// executing the generated hot section (tiled traversal) plus the cold
// section (untiled traversal) and merging the two private output buffers
// must reproduce the reference SpMM exactly up to summation order.
func TestFunctionalEquivalence(t *testing.T) {
	m := testMatrix(t, 6, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := formats(t, p, &a)
	rng := rand.New(rand.NewSource(7))
	din := dense.NewRandom(rng, m.N, a.K)

	// Reference.
	want := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(m, din, want); err != nil {
		t.Fatal(err)
	}

	// Cold buffer: untiled row-ordered execution.
	coldBuf := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(f.Cold, din, coldBuf); err != nil {
		t.Fatal(err)
	}

	// Hot buffer: tiled traversal over the hot blocks.
	hotBuf := dense.NewMatrix(m.N, a.K)
	for _, b := range f.Hot.Blocks {
		for i := range b.Vals {
			r, c, v := b.Rows[i], b.Cols[i], b.Vals[i]
			in := din.Row(int(c))
			out := hotBuf.Row(int(r))
			for j := range out {
				out[j] += v * in[j]
			}
		}
	}

	// Merger module.
	if err := dense.Merge(coldBuf, hotBuf); err != nil {
		t.Fatal(err)
	}
	if !coldBuf.AlmostEqual(want, 1e-9) {
		d, _ := coldBuf.MaxAbsDiff(want)
		t.Fatalf("partitioned execution differs from reference by %g", d)
	}
}

func TestGenerateFormatsCanceled(t *testing.T) {
	m := testMatrix(t, 8, 256, 32, 800, 400)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateFormats(ctx, p, &a); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v, want context.Canceled", err)
	}
}
