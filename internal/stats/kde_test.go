package stats

import (
	"math"
	"math/rand"
	"testing"
)

// kdeOf builds the KDE of a histogram over [lo, hi) holding xs.
func kdeOf(t *testing.T, lo, hi float64, bins int, bandwidth float64, xs ...float64) *KDE {
	t.Helper()
	h := mustHistogram(t, lo, hi, bins)
	for _, x := range xs {
		h.Add(x)
	}
	return NewKDEFromHistogram(h, bandwidth)
}

func TestKDEEmptyEvaluatesZero(t *testing.T) {
	k := kdeOf(t, -1, 1, 4, 0)
	if got := k.Evaluate(0); got != 0 {
		t.Errorf("empty KDE at 0 = %v, want 0", got)
	}
}

func TestKDEPeaksAtData(t *testing.T) {
	k := kdeOf(t, -0.5, 10.5, 11, 0.5, 0, 0, 0, 0, 10)
	if k.Evaluate(0) <= k.Evaluate(5) {
		t.Error("density at cluster should exceed density between clusters")
	}
	if k.Evaluate(10) <= k.Evaluate(5) {
		t.Error("density at lone sample should exceed density in the gap")
	}
	if k.Evaluate(0) <= k.Evaluate(10) {
		t.Error("density at 4-sample cluster should exceed lone sample")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	k := kdeOf(t, -5, 5, 50, 0, samples...)
	// Trapezoid integration over a wide range.
	const n = 4000
	lo, hi := -10.0, 10.0
	step := (hi - lo) / n
	var integral float64
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*step
		w := step
		if i == 0 || i == n {
			w = step / 2
		}
		integral += k.Evaluate(x) * w
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("KDE integral = %v, want ≈1", integral)
	}
}

func TestKDEFromHistogram(t *testing.T) {
	h := mustHistogram(t, 0, 10, 10)
	for i := 0; i < 50; i++ {
		h.Add(2.5)
	}
	for i := 0; i < 10; i++ {
		h.Add(7.5)
	}
	k := NewKDEFromHistogram(h, 0)
	if k.Bandwidth() <= 0 {
		t.Fatalf("bandwidth = %v, want > 0", k.Bandwidth())
	}
	if k.Evaluate(2.5) <= k.Evaluate(7.5) {
		t.Error("heavier bin should have higher density")
	}
	if k.Evaluate(7.5) <= k.Evaluate(5.0)/10 {
		t.Error("lighter bin should still carry visible density")
	}
}

func TestKDEFromEmptyHistogram(t *testing.T) {
	h := mustHistogram(t, 0, 1, 4)
	k := NewKDEFromHistogram(h, 0)
	if got := k.Evaluate(0.5); got != 0 {
		t.Errorf("empty histogram KDE = %v, want 0", got)
	}
}

func TestKDEGrid(t *testing.T) {
	k := kdeOf(t, 0.5, 3.5, 3, 0.5, 1, 2, 3)
	xs, ys := k.Grid(0, 4, 9)
	if len(xs) != 9 || len(ys) != 9 {
		t.Fatalf("grid lengths = %d,%d; want 9,9", len(xs), len(ys))
	}
	if xs[0] != 0 || xs[8] != 4 {
		t.Errorf("grid endpoints = %v,%v; want 0,4", xs[0], xs[8])
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Errorf("grid xs not increasing at %d", i)
		}
	}
	// Degenerate n is coerced to 2.
	xs, ys = k.Grid(0, 1, 0)
	if len(xs) != 2 || len(ys) != 2 {
		t.Errorf("degenerate grid lengths = %d,%d; want 2,2", len(xs), len(ys))
	}
}
