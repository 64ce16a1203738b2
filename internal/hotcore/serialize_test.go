package hotcore

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/tile"
)

func TestPlanRoundTrip(t *testing.T) {
	m := testMatrix(t, 51, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Grid.NNZ() != p.Grid.NNZ() || back.Grid.N != p.Grid.N {
		t.Fatal("grid changed")
	}
	if len(back.Partition.Hot) != len(p.Partition.Hot) {
		t.Fatal("assignment changed length")
	}
	for i := range p.Partition.Hot {
		if back.Partition.Hot[i] != p.Partition.Hot[i] {
			t.Fatal("assignment changed")
		}
	}
	if back.Partition.Predicted != p.Partition.Predicted ||
		back.Partition.Heuristic != p.Partition.Heuristic ||
		back.Partition.Serial != p.Partition.Serial {
		t.Fatal("partition metadata changed")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRoundTripPIUMACSR(t *testing.T) {
	m := testMatrix(t, 52, 512, 64, 2000, 1000)
	a := arch.PIUMA()
	a.TileH, a.TileW = 64, 64
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := formats(t, back, &a)
	if f.ColdCSR == nil || f.ColdCSR.NNZ() != formats(t, p, &a).ColdCSR.NNZ() {
		t.Fatal("CSR cold section lost")
	}
	if !f.Hot.CSR {
		t.Fatal("CSR flag lost")
	}
}

// roundTrip writes p and reads it back.
func roundTrip(t *testing.T, p *Prep) *Prep {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestRegeneratedFormatsIdentical: the plan no longer stores the
// per-worker formats, so a reloaded plan must regenerate exactly the
// formats the in-memory plan yields — for every strategy and kernel, on
// an architecture with COO workers and on one with CSR workers.
func TestRegeneratedFormatsIdentical(t *testing.T) {
	m := testMatrix(t, 54, 512, 64, 2000, 1000)
	sextans := smallArch()
	piuma := arch.PIUMA()
	piuma.TileH, piuma.TileW = 64, 64
	for _, a := range []arch.Arch{sextans, piuma} {
		for _, s := range []Strategy{StrategyHotTiles, StrategyIUnaware, StrategyHotOnly, StrategyColdOnly} {
			for _, k := range []model.Kernel{model.KernelSpMM, model.KernelSpMV, model.KernelSDDMM} {
				p, err := PreprocessOpts(m, &a, Options{Strategy: s, Kernel: k, Seed: 3})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", a.Name, s, k, err)
				}
				want := formats(t, p, &a)
				got := formats(t, roundTrip(t, p), &a)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v/%v: regenerated formats differ from the in-memory plan's", a.Name, s, k)
				}
			}
		}
	}
}

// TestSectionsReassembleGrid: the hot and cold gathers (what hottiles
// -out-hot/-out-cold write) are row-major and together hold exactly the
// grid's nonzeros.
func TestSectionsReassembleGrid(t *testing.T) {
	m := testMatrix(t, 55, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := Section(p.Grid, p.Partition.Hot, true)
	cold := Section(p.Grid, p.Partition.Hot, false)
	if hot.NNZ() == 0 || cold.NNZ() == 0 {
		t.Fatal("test plan needs both hot and cold nonzeros")
	}
	if !hot.IsRowMajor() || !cold.IsRowMajor() {
		t.Fatal("sections are not row-major")
	}
	all := sparse.NewCOO(p.Grid.N, 0)
	for _, sec := range []*sparse.COO{hot, cold} {
		all.Rows = append(all.Rows, sec.Rows...)
		all.Cols = append(all.Cols, sec.Cols...)
		all.Vals = append(all.Vals, sec.Vals...)
	}
	all.SortRowMajor()
	if !reflect.DeepEqual(all, p.Grid.ToCOO()) {
		t.Fatal("hot and cold sections do not reassemble the grid")
	}
}

// formatWire is the plan wire of builds that also stored the per-worker
// formats: planWire's fields plus the three format sections.
type formatWire struct {
	N            int
	TileH, TileW int
	NumTR, NumTC int
	Tiles        []tile.Tile
	PanelStart   []int
	Rows         []int32
	Cols         []int32
	Vals         []float64

	Hot       []bool
	Heuristic partition.Heuristic
	Serial    bool
	Predicted float64
	Totals    partition.Totals

	HotFormat *TiledMatrix
	Cold      *sparse.COO
	ColdCSR   *sparse.CSR
}

// TestReadPlanLoadsFormatCarryingWire: plans saved before the formats left
// the wire (spill dirs, -save-plan files) still load, with the same grid
// and decision.
func TestReadPlanLoadsFormatCarryingWire(t *testing.T) {
	m := testMatrix(t, 56, 512, 64, 2000, 1000)
	a := arch.PIUMA()
	a.TileH, a.TileW = 64, 64
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := formats(t, p, &a)
	g := p.Grid
	old := formatWire{
		N: g.N, TileH: g.TileH, TileW: g.TileW, NumTR: g.NumTR, NumTC: g.NumTC,
		Tiles: g.Tiles, PanelStart: g.PanelStart, Rows: g.Rows, Cols: g.Cols, Vals: g.Vals,
		Hot: p.Partition.Hot, Heuristic: p.Partition.Heuristic, Serial: p.Partition.Serial,
		Predicted: p.Partition.Predicted, Totals: p.Partition.Totals,
		HotFormat: f.Hot, Cold: f.Cold, ColdCSR: f.ColdCSR,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatalf("format-carrying plan rejected: %v", err)
	}
	if !reflect.DeepEqual(back, roundTrip(t, p)) {
		t.Fatal("format-carrying plan loaded a different grid or decision")
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
	if err := WritePlan(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("expected nil-plan error")
	}
}

func TestReadPlanRejectsCorruptedGrid(t *testing.T) {
	m := testMatrix(t, 53, 256, 32, 800, 400)
	a := smallArch()
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the in-memory plan, serialize, and expect the load-time
	// validation to refuse it.
	p.Grid.Rows[p.Grid.Tiles[0].Start] = int32(p.Grid.N - 1)
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(&buf); err == nil {
		t.Fatal("expected grid validation error")
	}
}
