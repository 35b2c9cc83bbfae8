package mds

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/race"
)

func TestPlaceFirstPoint(t *testing.T) {
	p, stress, err := Place(nil, nil, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p != (Coord{}) || stress != 0 {
		t.Errorf("first point = %v, %v; want origin, 0", p, stress)
	}
}

func TestPlaceSingleAnchor(t *testing.T) {
	p, _, err := Place([]Coord{{1, 1}}, []float64{3}, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dist(Coord{1, 1}); math.Abs(d-3) > 1e-9 {
		t.Errorf("distance to anchor = %v, want 3", d)
	}
}

func TestPlaceValidation(t *testing.T) {
	anchors := []Coord{{0, 0}, {1, 0}}
	if _, _, err := Place(anchors, []float64{1}, PlaceOptions{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := Place(anchors, []float64{1, -2}, PlaceOptions{}); err == nil {
		t.Error("negative dissimilarity should error")
	}
	if _, _, err := Place(anchors, []float64{1, math.NaN()}, PlaceOptions{}); err == nil {
		t.Error("NaN dissimilarity should error")
	}
}

func TestPlaceExactTriangulation(t *testing.T) {
	// Anchors form a triangle; the new point's true position is (1, 1).
	anchors := []Coord{{0, 0}, {2, 0}, {0, 2}, {3, 3}}
	truth := Coord{1, 1}
	delta := make([]float64, len(anchors))
	for i, a := range anchors {
		delta[i] = truth.Dist(a)
	}
	p, stress, err := Place(anchors, delta, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist(truth) > 1e-3 {
		t.Errorf("placed at %v, want ≈%v (stress %v)", p, truth, stress)
	}
	if stress > 1e-6 {
		t.Errorf("stress = %v, want ≈0 for consistent triangulation", stress)
	}
}

func TestPlaceCoincidentWithAnchor(t *testing.T) {
	// δ = 0 to one anchor: the point should land on that anchor.
	anchors := []Coord{{0, 0}, {4, 0}, {0, 4}}
	target := anchors[1]
	delta := []float64{target.Dist(anchors[0]), 0, target.Dist(anchors[2])}
	p, _, err := Place(anchors, delta, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist(target) > 1e-3 {
		t.Errorf("placed at %v, want ≈%v", p, target)
	}
}

func TestPlaceAgainstSMACOF(t *testing.T) {
	// Incremental placement of the last point must land close to where a
	// full SMACOF run puts it (after Procrustes alignment).
	rng := rand.New(rand.NewSource(5))
	truth := make([]Coord, 12)
	for i := range truth {
		truth[i] = Coord{rng.Float64() * 4, rng.Float64() * 4}
	}
	deltaAll := planted2D(truth)

	// Full embedding of all 12.
	full, err := SMACOF(deltaAll, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}

	// Embedding of the first 11, then place the 12th incrementally.
	first11 := truth[:11]
	delta11 := planted2D(first11)
	base, err := SMACOF(delta11, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	newDelta := make([]float64, 11)
	for i := 0; i < 11; i++ {
		newDelta[i] = truth[11].Dist(truth[i])
	}
	placed, _, err := Place(base.Config, newDelta, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Align the incremental config (11 anchors + placed) onto the full
	// embedding and compare the last point.
	incCfg := append(append([]Coord(nil), base.Config...), placed)
	aligned, err := AlignTo(incCfg, full.Config)
	if err != nil {
		t.Fatal(err)
	}
	if d := aligned[11].Dist(full.Config[11]); d > 0.05 {
		t.Errorf("incremental vs full placement differ by %v", d)
	}
}

func TestPlaceStressDecreases(t *testing.T) {
	// More iterations must never yield worse stress.
	anchors := []Coord{{0, 0}, {5, 0}, {0, 5}, {5, 5}, {2, 3}}
	delta := []float64{2, 4, 3.5, 4.5, 1.5} // deliberately inconsistent
	_, s1, err := Place(anchors, delta, PlaceOptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, s50, err := Place(anchors, delta, PlaceOptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if s50 > s1+1e-9 {
		t.Errorf("stress after 50 iters (%v) worse than after 1 (%v)", s50, s1)
	}
}

func TestPlaceAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(9))
	anchors := make([]Coord, 1000)
	delta := make([]float64, len(anchors))
	for i := range anchors {
		anchors[i] = Coord{rng.NormFloat64(), rng.NormFloat64()}
		delta[i] = anchors[i].Dist(Coord{0.3, -0.2}) * (0.8 + 0.4*rng.Float64())
	}
	var sink Coord
	n := testing.AllocsPerRun(20, func() {
		p, _, err := Place(anchors, delta, PlaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sink = sink.Add(p)
	})
	if n != 0 {
		t.Errorf("Place against %d anchors allocates %v times per call, want 0", len(anchors), n)
	}
}
