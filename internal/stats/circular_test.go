package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		name string
		in   float64
		want float64
	}{
		{"zero", 0, 0},
		{"pi wraps to -pi", math.Pi, -math.Pi},
		{"neg pi stays", -math.Pi, -math.Pi},
		{"2pi", 2 * math.Pi, 0},
		{"3pi", 3 * math.Pi, -math.Pi},
		{"small", 0.5, 0.5},
		{"negative small", -0.5, -0.5},
		{"large positive", 7 * math.Pi / 2, -math.Pi / 2},
		{"nan", math.NaN(), 0},
		{"inf", math.Inf(1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NormalizeAngle(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(raw int32) bool {
		a := float64(raw) / 1e4
		n := NormalizeAngle(a)
		return n >= -math.Pi && n < math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{"same", 1, 1, 0},
		{"quarter turn", 0, math.Pi / 2, math.Pi / 2},
		{"wrap positive", 3, -3, 2*math.Pi - 6},
		{"opposite", 0, math.Pi, math.Pi},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AngleDiff(tt.a, tt.b); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("AngleDiff(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCircularVariance(t *testing.T) {
	if got := CircularVariance(nil); got != 1 {
		t.Errorf("empty variance = %v, want 1", got)
	}
	if got := CircularVariance([]float64{0.7, 0.7, 0.7}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("constant variance = %v, want 0", got)
	}
	spread := CircularVariance([]float64{0, math.Pi / 2, -math.Pi, -math.Pi / 2})
	if !almostEqual(spread, 1, 1e-9) {
		t.Errorf("uniform spread variance = %v, want 1", spread)
	}
}

func TestMeanResultantLength(t *testing.T) {
	concentrated := MeanResultantLength([]float64{0.1, 0.12, 0.09})
	dispersed := MeanResultantLength([]float64{0, 2, -2, 3})
	if concentrated <= dispersed {
		t.Errorf("concentrated R̄ (%v) should exceed dispersed R̄ (%v)", concentrated, dispersed)
	}
	if concentrated < 0.99 {
		t.Errorf("concentrated R̄ = %v, want ≈1", concentrated)
	}
}

func TestCircularVarianceBoundsProperty(t *testing.T) {
	f := func(raws []int16) bool {
		angles := make([]float64, len(raws))
		for i, r := range raws {
			angles[i] = float64(r) / 1e4
		}
		v := CircularVariance(angles)
		return v >= -1e-12 && v <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
