package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/netlist"
)

// overlapTol is the overlap area, per unit of movable area, that the legal
// check accepts. Abutting cells whose edges are computed as sums of widths
// overlap by rounding error (about 1e-14 per unit area on the workloads
// here); any real overlap is many orders of magnitude larger.
const overlapTol = 1e-9

// posTol is the distance by which a cell may miss the outline or a row's
// cell-centre y through rounding.
const posTol = 1e-6

// checkLegal parses a written placement back and reports why it is not a
// legal placement of a design with wantCells cells: every movable cell
// inside the outline with its centre on a row's centre line, and no two
// movable cells overlapping. It returns the parsed netlist for scoring.
func checkLegal(text []byte, wantCells int) (*netlist.Netlist, error) {
	nl, err := netlist.Read(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parse written placement: %w", err)
	}
	if len(nl.Cells) != wantCells {
		return nil, fmt.Errorf("written placement has %d cells, want %d", len(nl.Cells), wantCells)
	}
	out := nl.Region.Outline
	rows := nl.Region.Rows
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed {
			continue
		}
		r := c.Rect()
		if r.Lo.X < out.Lo.X-posTol || r.Hi.X > out.Hi.X+posTol || r.Lo.Y < out.Lo.Y-posTol || r.Hi.Y > out.Hi.Y+posTol {
			return nil, fmt.Errorf("cell %s at (%g,%g) lies outside the outline %v", c.Name, c.Pos.X, c.Pos.Y, out)
		}
		ri := nl.Region.RowAt(r.Lo.Y + posTol)
		if ri < 0 || ri >= len(rows) || math.Abs(r.Lo.Y-rows[ri].Y) > posTol {
			return nil, fmt.Errorf("cell %s at (%g,%g) is not on a row", c.Name, c.Pos.X, c.Pos.Y)
		}
	}
	if ov := nl.OverlapArea(); ov > overlapTol*nl.MovableArea() {
		return nil, fmt.Errorf("movable cells overlap by area %g", ov)
	}
	return nl, nil
}

// checkResult parses a served result and reports why it is not a complete
// placement of a design with wantCells cells: every position finite and
// every movable cell centre inside the region's outline (pads sit on its
// periphery).
func checkResult(text []byte, wantCells int) (*netlist.Netlist, error) {
	nl, err := netlist.Read(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if len(nl.Cells) != wantCells {
		return nil, fmt.Errorf("result has %d cells, want %d", len(nl.Cells), wantCells)
	}
	out := nl.Region.Outline
	for i := range nl.Cells {
		p := nl.Cells[i].Pos
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("cell %s has a non-finite position", nl.Cells[i].Name)
		}
		if !nl.Cells[i].Fixed && (p.X < out.Lo.X-posTol || p.X > out.Hi.X+posTol || p.Y < out.Lo.Y-posTol || p.Y > out.Hi.Y+posTol) {
			return nil, fmt.Errorf("cell %s at (%g,%g) lies outside the region %v", nl.Cells[i].Name, p.X, p.Y, out)
		}
	}
	return nl, nil
}
