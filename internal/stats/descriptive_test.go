package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed signs", []float64{1, -2, 3, -4}, -2},
		{"zeros", []float64{0, 0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Sum(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, -3}, -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"single", []float64{9}, 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Median(tt.in)
			if err != nil {
				t.Fatalf("Median error: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Median(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Errorf("Median(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.25, 20},
		{0.5, 30},
		{0.75, 40},
		{1, 50},
		{0.1, 14},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v) error: %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("Quantile(-0.1) should error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("Quantile(1.1) should error")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("Quantile(NaN) should error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

// Property: the mean always lies within [min, max] of its inputs.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err1 := Quantile(clean, qa)
		vb, err2 := Quantile(clean, qb)
		return err1 == nil && err2 == nil && va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
