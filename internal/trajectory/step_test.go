package trajectory

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mds"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStepBetween(t *testing.T) {
	tests := []struct {
		name     string
		from, to mds.Coord
		wantD    float64
		wantA    float64
	}{
		{"east", mds.Coord{}, mds.Coord{X: 2}, 2, 0},
		{"north", mds.Coord{}, mds.Coord{Y: 3}, 3, math.Pi / 2},
		{"west", mds.Coord{}, mds.Coord{X: -1}, 1, -math.Pi},
		{"diagonal", mds.Coord{X: 1, Y: 1}, mds.Coord{X: 2, Y: 2}, math.Sqrt2, math.Pi / 4},
		{"zero", mds.Coord{X: 5, Y: 5}, mds.Coord{X: 5, Y: 5}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := StepBetween(tt.from, tt.to)
			if !almostEqual(s.Distance, tt.wantD, 1e-12) {
				t.Errorf("distance = %v, want %v", s.Distance, tt.wantD)
			}
			if !almostEqual(s.Angle, tt.wantA, 1e-12) {
				t.Errorf("angle = %v, want %v", s.Angle, tt.wantA)
			}
		})
	}
}

// Property: Destination inverts StepBetween.
func TestStepRoundTripProperty(t *testing.T) {
	f := func(fx, fy, tx, ty int16) bool {
		from := mds.Coord{X: float64(fx) / 100, Y: float64(fy) / 100}
		to := mds.Coord{X: float64(tx) / 100, Y: float64(ty) / 100}
		s := StepBetween(from, to)
		got := s.Destination(from)
		return got.Dist(to) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// stepsAlong converts a position sequence into its step sequence.
func stepsAlong(path []mds.Coord) []Step {
	var out []Step
	for i := 1; i < len(path); i++ {
		out = append(out, StepBetween(path[i-1], path[i]))
	}
	return out
}

func TestTurningAngles(t *testing.T) {
	// Right-angle turns: east, north, west.
	path := []mds.Coord{{}, {X: 1}, {X: 1, Y: 1}, {Y: 1}}
	turns := TurningAngles(stepsAlong(path))
	if len(turns) != 2 {
		t.Fatalf("turns = %d, want 2", len(turns))
	}
	for i, a := range turns {
		if !almostEqual(a, math.Pi/2, 1e-12) {
			t.Errorf("turn %d = %v, want π/2", i, a)
		}
	}
}

func TestTurningAnglesSkipsZeroSteps(t *testing.T) {
	// A pause in place must not inject a spurious direction.
	path := []mds.Coord{{}, {X: 1}, {X: 1}, {X: 2}}
	turns := TurningAngles(stepsAlong(path))
	if len(turns) != 1 {
		t.Fatalf("turns = %d, want 1", len(turns))
	}
	if !almostEqual(turns[0], 0, 1e-12) {
		t.Errorf("turn = %v, want 0 (straight line)", turns[0])
	}
}

func TestTurningAnglesTooFew(t *testing.T) {
	if got := TurningAngles(nil); got != nil {
		t.Errorf("no steps turns = %v", got)
	}
	if got := TurningAngles([]Step{{Distance: 1}}); got != nil {
		t.Errorf("single step turns = %v", got)
	}
}
