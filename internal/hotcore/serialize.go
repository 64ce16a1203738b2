package hotcore

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/partition"
	"repro/internal/tile"
)

// planWire is the gob wire form of a Prep: the paper's workflow stores the
// preprocessing output once (e.g. during GNN training) and reuses it later
// (inference) without re-running the scan/model/partition pipeline (§VI-B).
// The tiling grid is stored structurally and revalidated on load; the
// per-worker formats are not stored, since GenerateFormats derives them.
// Streams from builds that also stored the formats still decode: gob skips
// fields the struct no longer has.
type planWire struct {
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
}

// WritePlan serializes a preprocessing plan. Timings are not persisted
// (they describe the machine that ran the pipeline, not the plan).
func WritePlan(w io.Writer, p *Prep) error {
	if p == nil || p.Grid == nil {
		return fmt.Errorf("hotcore: nil plan")
	}
	wire := planWire{
		N:          p.Grid.N,
		TileH:      p.Grid.TileH,
		TileW:      p.Grid.TileW,
		NumTR:      p.Grid.NumTR,
		NumTC:      p.Grid.NumTC,
		Tiles:      p.Grid.Tiles,
		PanelStart: p.Grid.PanelStart,
		Rows:       p.Grid.Rows,
		Cols:       p.Grid.Cols,
		Vals:       p.Grid.Vals,
		Hot:        p.Partition.Hot,
		Heuristic:  p.Partition.Heuristic,
		Serial:     p.Partition.Serial,
		Predicted:  p.Partition.Predicted,
		Totals:     p.Partition.Totals,
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// ReadPlan deserializes a plan written by WritePlan and revalidates its
// structural invariants before returning it.
func ReadPlan(r io.Reader) (*Prep, error) {
	var wire planWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("hotcore: decoding plan: %w", err)
	}
	p := &Prep{
		Grid: &tile.Grid{
			N:          wire.N,
			TileH:      wire.TileH,
			TileW:      wire.TileW,
			NumTR:      wire.NumTR,
			NumTC:      wire.NumTC,
			Tiles:      wire.Tiles,
			PanelStart: wire.PanelStart,
			Rows:       wire.Rows,
			Cols:       wire.Cols,
			Vals:       wire.Vals,
		},
		Partition: partition.Result{
			Hot:       wire.Hot,
			Heuristic: wire.Heuristic,
			Serial:    wire.Serial,
			Predicted: wire.Predicted,
			Totals:    wire.Totals,
		},
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hotcore: stored plan invalid: %w", err)
	}
	return p, nil
}
