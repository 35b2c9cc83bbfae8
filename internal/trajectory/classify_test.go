package trajectory

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mds"
)

// Synthetic trajectory generators mirroring the paper's observed families.

func directedWalk(rng *rand.Rand, n int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{
			Distance: 0.4 + rng.Float64()*0.1,       // slightly varying length
			Angle:    0.5 + (rng.Float64()-0.5)*0.1, // consistent orientation
		}
	}
	return steps
}

func oscillatingWalk(rng *rand.Rand, n int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		angle := 0.2
		if i%2 == 1 {
			angle = angle - math.Pi // reverse direction each step
		}
		steps[i] = Step{
			Distance: 0.8 + rng.Float64()*0.2, // bigger step lengths
			Angle:    angle,
		}
	}
	return steps
}

func levyWalk(rng *rand.Rand, n int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		d := 0.05 + rng.Float64()*0.05
		if i%10 == 9 {
			d = 1.5 // rare long jump: a sudden phase change
		}
		steps[i] = Step{Distance: d, Angle: rng.Float64()*2*math.Pi - math.Pi}
	}
	return steps
}

func biasedRandomWalk(rng *rand.Rand, n int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		// Angles drawn with a broad bias toward east but wide spread —
		// neither directed nor oscillating, no heavy tail.
		steps[i] = Step{
			Distance: 0.2 + rng.Float64()*0.2,
			Angle:    (rng.Float64() - 0.3) * 2.4,
		}
	}
	return steps
}

func TestClassifyDirected(t *testing.T) {
	c := Classify(directedWalk(rand.New(rand.NewSource(1)), 40))
	if c.Kind != WalkDirected {
		t.Errorf("kind = %v (%+v), want directed", c.Kind, c)
	}
	if c.DirectionConcentration < 0.8 {
		t.Errorf("direction concentration = %v", c.DirectionConcentration)
	}
}

func TestClassifyOscillating(t *testing.T) {
	c := Classify(oscillatingWalk(rand.New(rand.NewSource(2)), 40))
	if c.Kind != WalkOscillating {
		t.Errorf("kind = %v (%+v), want oscillating", c.Kind, c)
	}
}

func TestClassifyLevyFlight(t *testing.T) {
	c := Classify(levyWalk(rand.New(rand.NewSource(3)), 50))
	if c.Kind != WalkLevyFlight {
		t.Errorf("kind = %v (%+v), want levy-flight", c.Kind, c)
	}
	if c.TailRatio < tailThreshold {
		t.Errorf("tail ratio = %v", c.TailRatio)
	}
}

func TestClassifyBiasedRandom(t *testing.T) {
	c := Classify(biasedRandomWalk(rand.New(rand.NewSource(4)), 60))
	if c.Kind != WalkBiasedRandom {
		t.Errorf("kind = %v (%+v), want biased-random-walk", c.Kind, c)
	}
}

func TestClassifyTooFewSteps(t *testing.T) {
	c := Classify(directedWalk(rand.New(rand.NewSource(5)), 3))
	if c.Kind != WalkUnknown {
		t.Errorf("kind = %v, want unknown for 3 steps", c.Kind)
	}
	if c := Classify(nil); c.Kind != WalkUnknown {
		t.Errorf("kind = %v, want unknown for nil", c.Kind)
	}
	// All zero-length steps carry no direction at all.
	zeros := make([]Step, 20)
	if c := Classify(zeros); c.Kind != WalkUnknown {
		t.Errorf("kind = %v, want unknown for all-zero steps", c.Kind)
	}
}

func TestWalkKindString(t *testing.T) {
	kinds := map[WalkKind]string{
		WalkUnknown:      "unknown",
		WalkDirected:     "directed",
		WalkOscillating:  "oscillating",
		WalkLevyFlight:   "levy-flight",
		WalkBiasedRandom: "biased-random-walk",
	}
	for k, w := range kinds {
		if got := k.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(k), got, w)
		}
	}
}

func TestClassifyFromPath(t *testing.T) {
	// End-to-end: build a real path (east-west oscillation), extract
	// steps, classify.
	var path []mds.Coord
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			path = append(path, mds.Coord{X: 0, Y: float64(i) * 0.01})
		} else {
			path = append(path, mds.Coord{X: 1, Y: float64(i) * 0.01})
		}
	}
	c := Classify(stepsAlong(path))
	if c.Kind != WalkOscillating {
		t.Errorf("kind = %v (%+v), want oscillating", c.Kind, c)
	}
}
