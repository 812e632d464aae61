package density

import (
	"math"
	"testing"

	"repro/internal/netgen"
	"repro/internal/par"
)

func TestAccumulateParallelIsBitIdentical(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "p", Cells: 500, Nets: 600, Rows: 8, Seed: 41})
	netgen.ScatterRandom(nl, 41)

	serial := NewGrid(nl.Region.Outline, 32, 16)
	serial.Accumulate(nl)

	parallel := NewGrid(nl.Region.Outline, 32, 16)
	old := par.Threshold
	par.Threshold = 1
	defer func() { par.Threshold = old }()
	parallel.Accumulate(nl)

	for i := range serial.Demand {
		if serial.Demand[i] != parallel.Demand[i] {
			t.Fatalf("parallel demand differs at bin %d: %g vs %g",
				i, parallel.Demand[i], serial.Demand[i])
		}
		if serial.D[i] != parallel.D[i] {
			t.Fatalf("parallel D differs at bin %d: %g vs %g",
				i, parallel.D[i], serial.D[i])
		}
	}

	// Repeated accumulation reuses the shard buffers; results must not drift.
	parallel.Accumulate(nl)
	for i := range serial.Demand {
		if serial.Demand[i] != parallel.Demand[i] {
			t.Fatalf("re-accumulated demand differs at bin %d", i)
		}
	}
}

// TestCachedFieldMatchesCold: two solves on one grid through its cached
// real-FFT solver (the second reuses plan, kernel spectra and scratch)
// match, bit for bit, a solve on a freshly built grid of the same density
// that constructs all of them cold.
func TestCachedFieldMatchesCold(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "c", Cells: 400, Nets: 500, Rows: 8, Seed: 42})
	netgen.ScatterRandom(nl, 42)

	hot := NewGrid(nl.Region.Outline, 64, 64)
	hot.Accumulate(nl)
	for round := 0; round < 2; round++ {
		cold := NewGrid(nl.Region.Outline, 64, 64)
		cold.Accumulate(nl)
		fh := ComputeField(hot, RealFFT)
		fc := ComputeField(cold, RealFFT)
		for i := range fh.FX {
			if math.Float64bits(fh.FX[i]) != math.Float64bits(fc.FX[i]) {
				t.Fatalf("round %d: FX differs at %d: %g vs %g", round, i, fh.FX[i], fc.FX[i])
			}
			if math.Float64bits(fh.FY[i]) != math.Float64bits(fc.FY[i]) {
				t.Fatalf("round %d: FY differs at %d: %g vs %g", round, i, fh.FY[i], fc.FY[i])
			}
		}
	}
}

func TestFieldCacheInvalidatedByNothing(t *testing.T) {
	// The cache keys on the padded dimensions only; a second grid of the
	// same geometry must not share state with the first (each grid owns its
	// fcache), and re-solving after a density change must track the change.
	nl := netgen.Generate(netgen.Config{Name: "i", Cells: 200, Nets: 260, Rows: 8, Seed: 43})
	netgen.ScatterRandom(nl, 43)
	g := NewGrid(nl.Region.Outline, 64, 64)
	g.Accumulate(nl)
	f1 := ComputeField(g, RealFFT)

	// Move everything and re-accumulate: the cached solver must see the new
	// density, not replay the old solve.
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			nl.Cells[ci].Pos.X = nl.Region.Outline.Lo.X + 1
		}
	}
	g.Accumulate(nl)
	f2 := ComputeField(g, RealFFT)

	var diff float64
	for i := range f1.FX {
		diff += math.Abs(f1.FX[i] - f2.FX[i])
	}
	if diff == 0 {
		t.Fatal("cached field solver returned a stale field after the density changed")
	}
}
