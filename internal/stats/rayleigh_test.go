package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRayleighWeightEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		d, c float64
		want float64
	}{
		{"zero distance", 0, 1, 0},
		{"negative distance", -1, 1, 0},
		{"zero scale", 1, 0, 0},
		{"negative scale", 1, -2, 0},
		{"nan distance", math.NaN(), 1, 0},
		{"nan scale", 1, math.NaN(), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RayleighWeight(tt.d, tt.c); got != tt.want {
				t.Errorf("RayleighWeight(%v,%v) = %v, want %v", tt.d, tt.c, got, tt.want)
			}
		})
	}
}

func TestRayleighWeightKnownValues(t *testing.T) {
	// At d = c the weight peaks at c·e^(−1/2).
	c := 2.0
	want := c * math.Exp(-0.5)
	if got := RayleighWeight(c, c); !almostEqual(got, want, 1e-12) {
		t.Errorf("peak weight = %v, want %v", got, want)
	}
	// Far from the scale the weight decays towards zero.
	if got := RayleighWeight(100, 1); got > 1e-6 {
		t.Errorf("far weight = %v, want ≈0", got)
	}
}

// The central safety property from §3.2.2: the violation-range radius is
// strictly less than the distance to the nearest safe-state, so a known
// safe-state can never fall inside a violation-range derived from it.
func TestRayleighWeightBoundedByDistanceProperty(t *testing.T) {
	f := func(dRaw, cRaw uint32) bool {
		d := float64(dRaw)/1e6 + 1e-9
		c := float64(cRaw)/1e6 + 1e-9
		r := RayleighWeight(d, c)
		return r >= 0 && r < d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The weight is unimodal: increasing on (0, c], decreasing on [c, ∞).
func TestRayleighWeightUnimodal(t *testing.T) {
	c := 1.7
	prev := 0.0
	for d := 0.01; d <= c; d += 0.01 {
		w := RayleighWeight(d, c)
		if w < prev-1e-12 {
			t.Fatalf("weight not increasing at d=%v", d)
		}
		prev = w
	}
	prev = RayleighWeight(c, c)
	for d := c; d <= 10*c; d += 0.05 {
		w := RayleighWeight(d, c)
		if w > prev+1e-12 {
			t.Fatalf("weight not decreasing at d=%v", d)
		}
		prev = w
	}
}
