package stats

import (
	"math"
)

// KDE is a one-dimensional Gaussian kernel density estimator. The paper
// plots "the smoothed version of the histogram using kernel density
// estimation" (Fig 5); KDE provides the same smoothing for figure output
// and for the walk classifier.
type KDE struct {
	samples   []float64
	weights   []float64
	bandwidth float64
	total     float64
}

// NewKDEFromHistogram builds a KDE using bin centers weighted by bin counts.
// This is how the runtime smooths its accumulated step/angle histograms
// without retaining every raw observation.
func NewKDEFromHistogram(h *Histogram, bandwidth float64) *KDE {
	k := &KDE{}
	for i := 0; i < h.Bins(); i++ {
		c := h.Count(i)
		if c <= 0 {
			continue
		}
		k.samples = append(k.samples, h.BinCenter(i))
		k.weights = append(k.weights, c)
		k.total += c
	}
	if bandwidth > 0 {
		k.bandwidth = bandwidth
	} else {
		// Use twice the bin width as a reasonable default smoothing scale
		// for binned data; Silverman on bin centers underestimates spread.
		k.bandwidth = 2 * h.BinWidth()
	}
	return k
}

// Bandwidth returns the estimator's kernel bandwidth.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }

// Evaluate returns the estimated density at x.
func (k *KDE) Evaluate(x float64) float64 {
	if k.total == 0 {
		return 0
	}
	inv := 1 / (k.bandwidth * math.Sqrt(2*math.Pi))
	var s float64
	for i, xi := range k.samples {
		u := (x - xi) / k.bandwidth
		s += k.weights[i] * inv * math.Exp(-0.5*u*u)
	}
	return s / k.total
}

// Grid evaluates the density at n evenly spaced points across [lo, hi] and
// returns the x positions and densities. n < 2 is treated as 2.
func (k *KDE) Grid(lo, hi float64, n int) (xs, ys []float64) {
	if n < 2 {
		n = 2
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		xs[i] = lo + float64(i)*step
		ys[i] = k.Evaluate(xs[i])
	}
	return xs, ys
}
