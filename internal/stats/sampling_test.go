package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramSamplerReproducesDistribution checks inverse-transform
// sampling — InverseCDF of uniform draws, the way the trajectory model
// samples its step and angle histograms — against the bin masses.
func TestHistogramSamplerReproducesDistribution(t *testing.T) {
	h := mustHistogram(t, 0, 1, 4)
	h.AddWeighted(0.125, 10) // bin 0
	h.AddWeighted(0.375, 20) // bin 1
	h.AddWeighted(0.625, 30) // bin 2
	h.AddWeighted(0.875, 40) // bin 3
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		x := h.InverseCDF(rng.Float64())
		idx := int(x * 4)
		if idx > 3 {
			idx = 3
		}
		counts[idx]++
	}
	want := []float64{0.1, 0.2, 0.3, 0.4}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-want[i]) > 0.015 {
			t.Errorf("bin %d fraction = %v, want ≈%v", i, frac, want[i])
		}
	}
}
