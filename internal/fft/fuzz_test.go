package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// FuzzPlanRoundTrip checks the shared radix-2 tables — the 1-D transform a
// W×H RealPlan runs along each axis — for both fuzzed axis lengths up to
// 128: the forward transform matches a direct-summation DFT, and
// forward∘inverse ≈ identity. The exponents are fuzzed so the corpus hits
// the degenerate lengths (1, 2) a hand-written table of "reasonable" sizes
// would skip. Amplitudes are fuzzed too: the tolerance scales with the
// input magnitude, so large inputs only get the relative accuracy the
// transform can deliver.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(6), int64(1), 1.0)   // 1 and 64
	f.Add(uint8(7), uint8(1), int64(2), 1.0)   // 128 and 2
	f.Add(uint8(0), uint8(0), int64(3), 1.0)   // 1×1 degenerate
	f.Add(uint8(3), uint8(3), int64(42), 1e6)  // large amplitudes
	f.Add(uint8(5), uint8(4), int64(9), 1e-12) // tiny amplitudes
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, seed int64, amp float64) {
		if !(math.Abs(amp) > 0 && math.Abs(amp) < 1e100) {
			amp = 1
		}
		rng := rand.New(rand.NewSource(seed))
		for _, e := range []uint8{wExp % 8, hExp % 8} {
			n := 1 << e
			data := make([]complex128, n)
			maxAbs := 0.0
			for i := range data {
				data[i] = complex(amp*(2*rng.Float64()-1), amp*(2*rng.Float64()-1))
				if a := cmplx.Abs(data[i]); a > maxAbs {
					maxAbs = a
				}
			}
			orig := append([]complex128(nil), data...)
			want := naiveDFT(data)

			forward(data)
			// Each term of the direct sum and each butterfly stage
			// contributes O(ε) relative error.
			specTol := 1e-13 * float64(4+e) * float64(n) * (1 + maxAbs)
			for i := range data {
				if d := cmplx.Abs(data[i] - want[i]); d > specTol {
					t.Fatalf("length %d: bin %d off the direct DFT by %g (tol %g)", n, i, d, specTol)
				}
			}
			inverse(data)
			tol := 1e-13 * float64(4+e) * (1 + maxAbs)
			for i := range data {
				if d := cmplx.Abs(data[i] - orig[i]); d > tol {
					t.Fatalf("length %d: element %d drifted %g (tol %g) after round trip",
						n, i, d, tol)
				}
			}
		}
	})
}

// FuzzRealPlanRoundTrip checks IRFFT∘RFFT ≈ identity for every
// power-of-two real plan up to 128×128, and, on plans of at most 1024
// points (where the direct sum stays cheap), that the half-spectrum agrees
// with the direct-summation 2-D DFT on the retained columns — the
// Hermitian-symmetry contract everything downstream (cached kernel
// spectra, pointwise products) relies on.
func FuzzRealPlanRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(6), int64(1), 1.0)   // 1×64 strip
	f.Add(uint8(7), uint8(1), int64(2), 1.0)   // 128×2 strip
	f.Add(uint8(0), uint8(0), int64(3), 1.0)   // 1×1 degenerate
	f.Add(uint8(3), uint8(3), int64(42), 1e6)  // square, large amplitudes
	f.Add(uint8(5), uint8(4), int64(9), 1e-12) // tiny amplitudes
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, seed int64, amp float64) {
		w := 1 << (wExp % 8)
		h := 1 << (hExp % 8)
		if !(math.Abs(amp) > 0 && math.Abs(amp) < 1e100) {
			amp = 1
		}
		rng := rand.New(rand.NewSource(seed))
		src := make([]float64, w*h)
		maxAbs := 0.0
		for i := range src {
			src[i] = amp * (2*rng.Float64() - 1)
			if a := math.Abs(src[i]); a > maxAbs {
				maxAbs = a
			}
		}

		rp := NewRealPlan(w, h)
		spec := make([]complex128, rp.SpecLen())
		rp.Spectrum(spec, src)

		tol := 1e-13 * float64(4+wExp%8+hExp%8) * float64(w*h) * (1 + maxAbs)

		// Half-spectrum must match the direct DFT on retained columns.
		if w*h <= 1024 {
			full := naiveDFT2(src, w, h)
			hw := w/2 + 1
			for y := 0; y < h; y++ {
				for k := 0; k < hw; k++ {
					if d := cmplx.Abs(spec[y*hw+k] - full[y*w+k]); d > tol {
						t.Fatalf("real plan %dx%d: spectrum (%d,%d) off by %g (tol %g)",
							w, h, k, y, d, tol)
					}
				}
			}
		}

		out := make([]float64, w*h)
		rp.Inverse(out, spec)
		for i := range src {
			if d := math.Abs(out[i] - src[i]); d > tol {
				t.Fatalf("real plan %dx%d: element %d drifted %g (tol %g) after round trip",
					w, h, i, d, tol)
			}
		}
	})
}

// FuzzSpectrumConvolve cross-checks the cached-spectrum convolution against
// the cyclic convolution by direct summation: their outputs must agree to
// roundoff for any kernel.
func FuzzSpectrumConvolve(f *testing.F) {
	f.Add(uint8(2), uint8(3), int64(5))
	f.Add(uint8(0), uint8(5), int64(11))
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, seed int64) {
		w := 1 << (wExp % 6)
		h := 1 << (hExp % 6)
		rng := rand.New(rand.NewSource(seed))
		src := make([]float64, w*h)
		kernel := make([]float64, w*h)
		for i := range src {
			src[i] = 2*rng.Float64() - 1
			kernel[i] = 2*rng.Float64() - 1
		}

		direct := naiveConvolve(src, kernel, w, h)
		cached := make([]float64, w*h)
		convolve2D(cached, src, kernel, w, h)

		for i := range direct {
			if d := math.Abs(direct[i] - cached[i]); d > 1e-9 {
				t.Fatalf("plan %dx%d: convolution paths disagree at %d by %g", w, h, i, d)
			}
		}
	})
}
