package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// radix2 holds the precomputed tables for one transform length: the
// bit-reversal permutation and the per-stage twiddle factors (forward and
// inverse). Tables are immutable after construction and shared between all
// real plans and axes of the same length through tableFor.
type radix2 struct {
	n   int
	rev []int32
	// Twiddles packed stage by stage: the stage with half-size h occupies
	// [h-1 : 2h-1], so the whole table is n-1 entries per direction.
	twF []complex128
	twI []complex128
}

var tableCache sync.Map // int -> *radix2

func tableFor(n int) *radix2 {
	if t, ok := tableCache.Load(n); ok {
		return t.(*radix2)
	}
	t, _ := tableCache.LoadOrStore(n, newRadix2(n))
	return t.(*radix2)
}

func newRadix2(n int) *radix2 {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	t := &radix2{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		t.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	if n >= 2 {
		t.twF = make([]complex128, n-1)
		t.twI = make([]complex128, n-1)
		for size := 2; size <= n; size <<= 1 {
			half := size / 2
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(size)))
				t.twF[half-1+k] = w
				t.twI[half-1+k] = cmplx.Conj(w)
			}
		}
	}
	return t
}

// transform runs the in-place Cooley-Tukey butterflies on a (len n) using
// the precomputed tables. No scaling is applied in either direction.
func (t *radix2) transform(a []complex128, inverse bool) {
	if len(a) != t.n {
		panic(fmt.Sprintf("fft: length %d does not match table %d", len(a), t.n))
	}
	for i, jj := range t.rev {
		if j := int(jj); i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := t.twF
	if inverse {
		tw = t.twI
	}
	n := t.n
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ws := tw[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo, hi := a[start:start+half], a[start+half:start+size]
			for k := range lo {
				u := lo[k]
				v := hi[k] * ws[k]
				lo[k] = u + v
				hi[k] = u - v
			}
		}
	}
}
