package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/par"
)

func randomReal(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// halfOf extracts the non-redundant (W/2+1)-column half of a full W×H
// complex spectrum, the layout RealPlan stores.
func halfOf(full []complex128, w, h int) []complex128 {
	hw := w/2 + 1
	half := make([]complex128, hw*h)
	for y := 0; y < h; y++ {
		copy(half[y*hw:(y+1)*hw], full[y*w:y*w+hw])
	}
	return half
}

var realPlanSizes = [][2]int{
	{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}, {2, 8}, {8, 8},
	{16, 4}, {8, 16}, {1, 16}, {64, 1}, {32, 16}, {64, 64},
}

// TestRealSpectrumMatchesComplex pins the half-spectrum against the
// retained columns of the full complex spectrum of the same real input,
// computed by direct summation, within 1e-12.
func TestRealSpectrumMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)

		want := halfOf(naiveDFT2(src, w, h), w, h)

		rp := NewRealPlan(w, h)
		got := make([]complex128, rp.SpecLen())
		rp.Spectrum(got, src)

		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-12*float64(1+w*h) {
				t.Fatalf("%dx%d: spectrum entry %d off by %g", w, h, i, d)
			}
		}
	}
}

// TestRealInverseRoundTrip pins IRFFT(RFFT(x)) == x within 1e-12 and
// checks Inverse leaves the spectrum untouched.
func TestRealInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)

		rp := NewRealPlan(w, h)
		spec := make([]complex128, rp.SpecLen())
		rp.Spectrum(spec, src)
		snap := append([]complex128(nil), spec...)

		out := make([]float64, w*h)
		rp.Inverse(out, spec)
		for i := range src {
			if d := math.Abs(out[i] - src[i]); d > 1e-12*float64(1+w*h) {
				t.Fatalf("%dx%d: round trip drifted %g at %d", w, h, d, i)
			}
		}
		for i := range spec {
			if spec[i] != snap[i] {
				t.Fatalf("%dx%d: Inverse mutated the input spectrum at %d", w, h, i)
			}
		}
	}
}

// TestGridRoundTrip2D: a 2-D transform of an 8×16 grid of Gaussian
// samples followed by its inverse returns the input within 1e-10.
func TestGridRoundTrip2D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rp := NewRealPlan(8, 16)
	orig := make([]float64, 8*16)
	for i := range orig {
		orig[i] = rng.NormFloat64()
	}
	spec := make([]complex128, rp.SpecLen())
	rp.Spectrum(spec, orig)
	back := make([]float64, len(orig))
	rp.Inverse(back, spec)
	for i := range orig {
		if math.Abs(back[i]-orig[i]) > 1e-10 {
			t.Fatalf("2D roundtrip[%d] = %v, want %v", i, back[i], orig[i])
		}
	}
}

// TestRealConvolveSpectraMatchesComplex pins the half-spectrum convolution
// pipeline against the cyclic convolution by direct summation: same src,
// two kernels through one call, both answers within 1e-12. This is the
// exact computation the density field solver runs.
func TestRealConvolveSpectraMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)
		k1 := randomReal(rng, w*h)
		k2 := randomReal(rng, w*h)
		want := [][]float64{naiveConvolve(src, k1, w, h), naiveConvolve(src, k2, w, h)}

		rp := NewRealPlan(w, h)
		halfSpecs := [][]complex128{make([]complex128, rp.SpecLen()), make([]complex128, rp.SpecLen())}
		rp.Spectrum(halfSpecs[0], k1)
		rp.Spectrum(halfSpecs[1], k2)
		got := [][]float64{make([]float64, w*h), make([]float64, w*h)}
		rp.ConvolveSpectra(got, src, halfSpecs)

		for s := range want {
			for i := range want[s] {
				if d := math.Abs(got[s][i] - want[s][i]); d > 1e-12*float64(1+w*h) {
					t.Fatalf("%dx%d: kernel %d entry %d off by %g", w, h, s, i, d)
				}
			}
		}
	}
}

// TestRealPlanParallelIsBitIdentical forces the parallel fan-out on a grid
// large enough to split and compares against a serial run of the same
// kernels (par.Threshold trick, mirroring the density reuse tests).
func TestRealPlanParallelIsBitIdentical(t *testing.T) {
	const w, h = 64, 32
	rng := rand.New(rand.NewSource(55))
	src := randomReal(rng, w*h)

	run := func() ([]complex128, []float64) {
		rp := NewRealPlan(w, h)
		spec := make([]complex128, rp.SpecLen())
		rp.Spectrum(spec, src)
		out := make([]float64, w*h)
		rp.Inverse(out, spec)
		return spec, out
	}

	old := par.Threshold
	par.Threshold = w * h * 2 // force serial
	serialSpec, serialOut := run()
	par.Threshold = 1 // force the fan-out
	parSpec, parOut := run()
	par.Threshold = old

	for i := range serialSpec {
		if serialSpec[i] != parSpec[i] {
			t.Fatalf("spectrum entry %d differs between serial and parallel runs", i)
		}
	}
	for i := range serialOut {
		if math.Float64bits(serialOut[i]) != math.Float64bits(parOut[i]) {
			t.Fatalf("inverse entry %d differs between serial and parallel runs", i)
		}
	}
}

// withThreshold runs f with the parallel cutover lowered so small test grids
// exercise the multi-goroutine paths.
func withThreshold(t *testing.T, n int, f func()) {
	t.Helper()
	old := par.Threshold
	par.Threshold = n
	defer func() { par.Threshold = old }()
	f()
}

// TestPlanTransformMatchesSerialForward extends the bit-identity check to
// aspect ratios where one pass has only a few rows or columns to split.
func TestPlanTransformMatchesSerialForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range [][2]int{{8, 8}, {16, 4}, {4, 32}} {
		w, h := dim[0], dim[1]
		src := randomReal(rng, w*h)
		p := NewRealPlan(w, h)
		serial := make([]complex128, p.SpecLen())
		p.Spectrum(serial, src)

		parallel := make([]complex128, p.SpecLen())
		withThreshold(t, 1, func() {
			NewRealPlan(w, h).Spectrum(parallel, src)
		})
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%dx%d: parallel Spectrum differs at %d: %v vs %v",
					w, h, i, parallel[i], serial[i])
			}
		}
	}
}

// TestPlanRoundTrip reuses one plan for successive round trips and
// convolutions: its owned scratch must carry nothing from one call to the
// next, so every result is bit-identical to a fresh plan's.
func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const w, h = 16, 8
	reused := NewRealPlan(w, h)
	for round := 0; round < 3; round++ {
		src := randomReal(rng, w*h)
		kernel := randomReal(rng, w*h)
		run := func(p *RealPlan) (spec []complex128, back, conv []float64) {
			spec = make([]complex128, p.SpecLen())
			p.Spectrum(spec, kernel)
			back = make([]float64, w*h)
			p.Inverse(back, spec)
			conv = make([]float64, w*h)
			p.ConvolveSpectra([][]float64{conv}, src, [][]complex128{spec})
			return spec, back, conv
		}
		ws, wb, wc := run(NewRealPlan(w, h))
		gs, gb, gc := run(reused)
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("round %d: reused plan's spectrum differs at %d", round, i)
			}
		}
		for i := range wb {
			if math.Float64bits(gb[i]) != math.Float64bits(wb[i]) ||
				math.Float64bits(gc[i]) != math.Float64bits(wc[i]) {
				t.Fatalf("round %d: reused plan's inverse or convolution differs at %d", round, i)
			}
			if d := math.Abs(gb[i] - kernel[i]); d > 1e-12*float64(1+w*h) {
				t.Fatalf("round %d: round trip drifted %g at %d", round, d, i)
			}
		}
	}
}

// TestConvolveSpectraMatchesConvolve: convolving against two cached
// spectra in one call is bit-identical to two single-kernel calls — the
// shared source spectrum is computed once, not approximated.
func TestConvolveSpectraMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const w, h = 16, 8
	n := w * h
	src := randomReal(rng, n)
	k1 := randomReal(rng, n)
	k2 := randomReal(rng, n)

	p := NewRealPlan(w, h)
	spec1 := make([]complex128, p.SpecLen())
	spec2 := make([]complex128, p.SpecLen())
	p.Spectrum(spec1, k1)
	p.Spectrum(spec2, k2)
	want1 := make([]float64, n)
	want2 := make([]float64, n)
	p.ConvolveSpectra([][]float64{want1}, src, [][]complex128{spec1})
	p.ConvolveSpectra([][]float64{want2}, src, [][]complex128{spec2})

	got1 := make([]float64, n)
	got2 := make([]float64, n)
	p.ConvolveSpectra([][]float64{got1, got2}, src, [][]complex128{spec1, spec2})
	for i := 0; i < n; i++ {
		if math.Float64bits(got1[i]) != math.Float64bits(want1[i]) {
			t.Fatalf("two-kernel call, k1 differs at %d: %g vs %g", i, got1[i], want1[i])
		}
		if math.Float64bits(got2[i]) != math.Float64bits(want2[i]) {
			t.Fatalf("two-kernel call, k2 differs at %d: %g vs %g", i, got2[i], want2[i])
		}
	}
}

func TestConvolve2DParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const w, h = 32, 16
	src := randomReal(rng, w*h)
	kernel := randomReal(rng, w*h)

	serial := make([]float64, w*h)
	convolve2D(serial, src, kernel, w, h)

	parallel := make([]float64, w*h)
	withThreshold(t, 1, func() {
		convolve2D(parallel, src, kernel, w, h)
	})
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel convolution differs at %d: %g vs %g", i, parallel[i], serial[i])
		}
	}
}

func TestPlanDimensionPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanic("NewRealPlan", func() { NewRealPlan(6, 8) })
	p := NewRealPlan(8, 8)
	assertPanic("Spectrum", func() { p.Spectrum(make([]complex128, p.SpecLen()), make([]float64, 10)) })
	assertPanic("Inverse", func() { p.Inverse(make([]float64, 64), make([]complex128, 64)) })
	assertPanic("ConvolveSpectra", func() {
		p.ConvolveSpectra([][]float64{make([]float64, 64)}, make([]float64, 64),
			[][]complex128{make([]complex128, 3)})
	})
}

func BenchmarkRealPlanConvolveSpectra(b *testing.B) {
	const w, h = 128, 128
	rng := rand.New(rand.NewSource(42))
	src, kernel, dst := randomReal(rng, w*h), randomReal(rng, w*h), make([]float64, w*h)
	p := NewRealPlan(w, h)
	spec := make([]complex128, p.SpecLen())
	p.Spectrum(spec, kernel)
	dsts, specs := [][]float64{dst}, [][]complex128{spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConvolveSpectra(dsts, src, specs)
	}
}
