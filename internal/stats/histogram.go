package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram over a closed range [Lo, Hi].
// It is the underlying measurement behind the per-execution-mode trajectory
// models (§3.2.3 of the paper): step lengths and absolute angles are
// accumulated into histograms whose smoothed PDFs drive the predictor.
//
// Values outside [Lo, Hi] are clamped into the boundary bins so that no
// observation is silently dropped; Outliers reports how many were clamped.
type Histogram struct {
	lo, hi   float64
	counts   []float64
	total    float64
	outliers int
}

// NewHistogram returns a histogram with bins equal-width bins spanning
// [lo, hi]. It returns an error when bins < 1 or the range is empty or
// non-finite.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least 1 bin, got %d", bins)
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v]", lo, hi)
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]float64, bins)}, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Range returns the histogram's [lo, hi] range.
func (h *Histogram) Range() (lo, hi float64) { return h.lo, h.hi }

// Total returns the total accumulated weight.
func (h *Histogram) Total() float64 { return h.total }

// Outliers returns how many observations fell outside [lo, hi] and were
// clamped into a boundary bin.
func (h *Histogram) Outliers() int { return h.outliers }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.hi - h.lo) / float64(len(h.counts))
}

// binIndex maps x to a bin, clamping to the boundary bins.
func (h *Histogram) binIndex(x float64) (idx int, clamped bool) {
	if x < h.lo {
		return 0, true
	}
	if x >= h.hi {
		// The upper edge belongs to the last bin.
		if x > h.hi {
			return len(h.counts) - 1, true
		}
		return len(h.counts) - 1, false
	}
	i := int((x - h.lo) / h.BinWidth())
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i, false
}

// Add records one observation of x with weight 1. NaN values are counted as
// outliers and otherwise ignored.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted records one observation of x with the given non-negative
// weight. NaN values are counted as outliers and otherwise ignored.
func (h *Histogram) AddWeighted(x, w float64) {
	if w <= 0 {
		return
	}
	if math.IsNaN(x) {
		h.outliers++
		return
	}
	i, clamped := h.binIndex(x)
	if clamped {
		h.outliers++
	}
	h.counts[i] += w
	h.total += w
}

// Count returns the accumulated weight of bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// Counts returns a copy of all bin weights.
func (h *Histogram) Counts() []float64 {
	out := make([]float64, len(h.counts))
	copy(out, h.counts)
	return out
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.BinWidth()
}

// PDF returns the normalized probability density per bin (integrating to 1
// over [lo, hi]). For an empty histogram it returns a uniform density, which
// matches the predictor's cold-start behaviour: with no observations every
// step is equally likely.
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.counts))
	w := h.BinWidth()
	if h.total == 0 {
		u := 1 / (h.hi - h.lo)
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, c := range h.counts {
		out[i] = c / (h.total * w)
	}
	return out
}

// CDF returns the cumulative distribution evaluated at the right edge of
// each bin. The final entry is always 1 (or 1 for the uniform cold-start
// distribution of an empty histogram).
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		for i := range out {
			out[i] = float64(i+1) / float64(len(out))
		}
		return out
	}
	var cum float64
	for i, c := range h.counts {
		cum += c
		out[i] = cum / h.total
	}
	// Guard against floating-point drift: the CDF must end exactly at 1.
	out[len(out)-1] = 1
	return out
}

// InverseCDF maps u in [0,1] to a value x such that CDF(x) ≈ u, using linear
// interpolation within the selected bin. This is the inverse-transform step
// used to draw future-state samples from the learned histograms (§3.2.3).
// It walks the cumulative mass in place — the same divisions CDF performs,
// in the same order, with the last bin pinned to 1 — so a draw allocates
// nothing and returns exactly what a walk over CDF() would.
func (h *Histogram) InverseCDF(u float64) float64 {
	u = Clamp(u, 0, 1)
	w := h.BinWidth()
	n := len(h.counts)
	var cum, prev float64
	for i, cnt := range h.counts {
		var c float64
		switch {
		case i == n-1:
			c = 1
		case h.total == 0:
			c = float64(i+1) / float64(n)
		default:
			cum += cnt
			c = cum / h.total
		}
		if c <= prev {
			// Empty bin: carries no probability mass, so it can never be
			// the inverse image of u — skip to the first bin with mass.
			continue
		}
		if u <= c {
			frac := (u - prev) / (c - prev)
			return h.lo + (float64(i)+frac)*w
		}
		prev = c
	}
	return h.hi
}

// Merge adds the contents of other into h. The ranges and bin counts must
// match exactly.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	// Configuration-identity check: bounds round-trip exactly through
	// construction and snapshots, and an epsilon would silently merge
	// differently-binned histograms.
	if h.lo != other.lo || h.hi != other.hi || len(h.counts) != len(other.counts) {
		return fmt.Errorf("stats: cannot merge histogram [%v,%v]/%d with [%v,%v]/%d",
			h.lo, h.hi, len(h.counts), other.lo, other.hi, len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.outliers += other.outliers
	return nil
}

// Reset clears all accumulated weight.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.outliers = 0
}

// Mode returns the center of the heaviest bin. Ties resolve to the lowest
// bin. An empty histogram returns the range midpoint.
func (h *Histogram) Mode() float64 {
	if h.total == 0 {
		return (h.lo + h.hi) / 2
	}
	best, bestC := 0, h.counts[0]
	for i, c := range h.counts[1:] {
		if c > bestC {
			best, bestC = i+1, c
		}
	}
	return h.BinCenter(best)
}

// Mean returns the weighted mean of bin centers, or the range midpoint for
// an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return (h.lo + h.hi) / 2
	}
	var s float64
	for i, c := range h.counts {
		s += h.BinCenter(i) * c
	}
	return s / h.total
}

// SkewIndex returns a crude asymmetry measure in [-1, 1]: the normalized
// difference between weight above and below the range midpoint. The paper
// uses skew in the step-length/angle distributions as evidence that
// trajectories are biased rather than uniformly random; this index lets
// tests and the walk classifier assert that bias cheaply.
func (h *Histogram) SkewIndex() float64 {
	if h.total == 0 {
		return 0
	}
	mid := (h.lo + h.hi) / 2
	var above, below float64
	for i, c := range h.counts {
		if h.BinCenter(i) >= mid {
			above += c
		} else {
			below += c
		}
	}
	return (above - below) / h.total
}
