package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples, ceil(p/100·n), less a rounding margin so that 99.9% of 10000
// is rank 9990.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// tailPercentile picks the highest ladder percentile that leaves at least
// ten of n samples beyond it. ok is false when no ladder percentile
// qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tail reports xs's tail by the rule above; with too few samples for any
// ladder percentile it returns the maximum and p = 100.
func tail(xs []float64) (value, p float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		p = 100
	}
	return percentile(xs, p), p
}
