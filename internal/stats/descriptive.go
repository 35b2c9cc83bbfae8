// Package stats provides the small statistical toolbox Stay-Away is built
// on: descriptive statistics, fixed-bin histograms and their
// inverse-transform sampling, Gaussian kernel density smoothing of a
// histogram, the Rayleigh distance weighting used for violation ranges,
// and circular statistics for trajectory angles.
//
// Everything in this package is deterministic given the caller-supplied
// *rand.Rand; nothing reads the wall clock or global random state.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful result
// for an empty input slice.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
//
//lint:stayaway-ignore deadcode its callers are in the bench harness, a separate module that ./... does not load
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Median returns the median of xs without modifying it.
// It returns ErrEmpty for an empty slice.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. The input is not modified.
// It returns ErrEmpty for an empty slice and an error for q outside [0,1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile fraction outside [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Clamp limits x to the inclusive range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
