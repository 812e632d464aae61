package density

import (
	"math"
	"testing"

	"repro/internal/netgen"
)

// TestRealFFTFieldMatchesComplex pins the real-input field solver against
// the Direct superposition oracle on a 64×64 map of a generated design:
// the padded cyclic convolution equals the direct sum, so they must agree
// to roundoff.
func TestRealFFTFieldMatchesComplex(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "r", Cells: 400, Nets: 500, Rows: 8, Seed: 44})
	netgen.ScatterRandom(nl, 44)

	g := NewGrid(nl.Region.Outline, 64, 64)
	g.Accumulate(nl)

	fd := ComputeField(g, Direct)
	fr := ComputeField(g, RealFFT)
	var scale float64
	for i := range fd.FX {
		scale = math.Max(scale, math.Max(math.Abs(fd.FX[i]), math.Abs(fd.FY[i])))
	}
	for i := range fd.FX {
		if d := math.Abs(fr.FX[i] - fd.FX[i]); d > 1e-9*(1+scale) {
			t.Fatalf("FX differs at %d: %g vs %g", i, fr.FX[i], fd.FX[i])
		}
		if d := math.Abs(fr.FY[i] - fd.FY[i]); d > 1e-9*(1+scale) {
			t.Fatalf("FY differs at %d: %g vs %g", i, fr.FY[i], fd.FY[i])
		}
	}
}

// TestRealFFTCachedMatchesColdBitwise: a grid that reuses its cached
// solver (plan, kernel spectra, scratch) returns bit-identical fields to a
// freshly built grid that constructs them cold. Two rounds, with the
// placement moved in between, so the second cached solve reuses
// everything on new density.
func TestRealFFTCachedMatchesColdBitwise(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "rc", Cells: 400, Nets: 500, Rows: 8, Seed: 45})
	netgen.ScatterRandom(nl, 45)

	hot := NewGrid(nl.Region.Outline, 64, 64)
	for round := 0; round < 2; round++ {
		if round > 0 {
			netgen.ScatterRandom(nl, 46)
		}
		hot.Accumulate(nl)
		cold := NewGrid(nl.Region.Outline, 64, 64)
		cold.Accumulate(nl)
		fh := ComputeField(hot, RealFFT)
		fc := ComputeField(cold, RealFFT)
		for i := range fh.FX {
			if math.Float64bits(fh.FX[i]) != math.Float64bits(fc.FX[i]) ||
				math.Float64bits(fh.FY[i]) != math.Float64bits(fc.FY[i]) {
				t.Fatalf("round %d: cached and cold real-FFT fields differ at bin %d", round, i)
			}
		}
	}
}

// TestFieldCacheRekeysOnMethodSwitch: interleaving Direct solves with
// cached real-FFT solves on one grid must leave the cache intact — the
// real-FFT solve after the switch reproduces the one before it bit for
// bit, and the Direct oracle agrees with both to roundoff.
func TestFieldCacheRekeysOnMethodSwitch(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "sw", Cells: 300, Nets: 400, Rows: 8, Seed: 46})
	netgen.ScatterRandom(nl, 46)
	g := NewGrid(nl.Region.Outline, 64, 64)
	g.Accumulate(nl)

	want := ComputeField(g, RealFFT)
	mid := ComputeField(g, Direct)
	got := ComputeField(g, RealFFT)

	var scale float64
	for i := range want.FX {
		scale = math.Max(scale, math.Abs(want.FX[i]))
	}
	for i := range want.FX {
		if math.Float64bits(want.FX[i]) != math.Float64bits(got.FX[i]) {
			t.Fatalf("real-FFT solve after method switch is not reproducible at bin %d", i)
		}
		if d := math.Abs(mid.FX[i] - want.FX[i]); d > 1e-9*(1+scale) {
			t.Fatalf("direct solve diverged at bin %d by %g", i, d)
		}
	}
}

func TestMethodString(t *testing.T) {
	for _, tc := range []struct {
		m   Method
		tag string
	}{{Auto, "auto"}, {Direct, "direct"}, {RealFFT, "rfft"}} {
		if tc.m.String() != tc.tag {
			t.Errorf("%d.String() = %q, want %q", tc.m, tc.m.String(), tc.tag)
		}
	}
}
