package mds

import (
	"fmt"
	"math"
)

// Incremental single-point placement. Re-running full SMACOF every
// monitoring period is wasteful when only one new state arrives; §4 of the
// paper points to incremental MDS variants for exactly this reason. Place
// positions one new point against a frozen existing configuration by
// majorizing the single-point stress
//
//	σ(y) = Σ_i (δ_i − ‖y − x_i‖)²
//
// which uses the same Guttman-style update restricted to the new row.

// PlaceOptions configures incremental placement.
type PlaceOptions struct {
	// MaxIter bounds the majorization iterations (default 50 when 0).
	MaxIter int
	// Epsilon is the relative improvement convergence threshold
	// (default 1e-9 when 0).
	Epsilon float64
}

// Place embeds one new point with dissimilarities delta[i] to each existing
// configuration point x[i]. It returns the new point's coordinates and the
// final single-point raw stress.
func Place(x []Coord, delta []float64, opts PlaceOptions) (Coord, float64, error) {
	if len(x) == 0 {
		// First point ever: the origin is as good as anywhere.
		return Coord{}, 0, nil
	}
	if len(delta) != len(x) {
		return Coord{}, 0, fmt.Errorf("mds: %d dissimilarities for %d anchor points", len(delta), len(x))
	}
	for i, d := range delta {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return Coord{}, 0, fmt.Errorf("mds: invalid dissimilarity %v at %d", d, i)
		}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 1e-9
	}

	// Initialize at the anchor with the smallest dissimilarity, nudged
	// toward the centroid; a pure anchor start can sit at distance 0 from
	// that anchor, which stalls the majorizer when δ there is positive.
	best := 0
	for i, d := range delta {
		if d < delta[best] {
			best = i
		}
	}
	var centroid Coord
	for _, p := range x {
		centroid = centroid.Add(p)
	}
	centroid = centroid.Scale(1 / float64(len(x)))
	y := x[best].Scale(0.9).Add(centroid.Scale(0.1))
	if len(x) == 1 {
		// Single anchor: any point at distance δ is optimal; pick +x.
		return Coord{X: x[0].X + delta[0], Y: x[0].Y}, 0, nil
	}
	// Nudge the start off any line through the anchors: the majorization
	// update preserves exact collinearity, so without a perpendicular
	// component a degenerate 1-D configuration could never recover its
	// second dimension.
	var spread float64
	for _, p := range x {
		d := p.Sub(centroid)
		if s := math.Abs(d.X) + math.Abs(d.Y); s > spread {
			spread = s
		}
	}
	y.Y += 1e-3*spread + 1e-9

	// dist holds each anchor's distance from the current y: the stress
	// evaluation computes them and the majorization step that follows
	// reads them back. Up to 256 anchors it lives on the stack.
	var buf [256]float64
	dist := buf[:]
	if len(x) > len(buf) {
		dist = make([]float64, len(x))
	}
	prev := pointStress(x, delta, y, dist)
	invN := 1 / float64(len(x))
	for iter := 0; iter < maxIter; iter++ {
		var sx, sy float64
		for i, p := range x {
			if d := dist[i]; d > 0 {
				r := delta[i] / d
				sx += p.X + r*(y.X-p.X)
				sy += p.Y + r*(y.Y-p.Y)
			} else {
				// Coincident with an anchor: majorizer contribution reduces
				// to the anchor itself; the δ term re-expands on the next
				// iteration once other anchors pull y off the singularity.
				sx += p.X
				sy += p.Y
			}
		}
		y = Coord{sx * invN, sy * invN}
		cur := pointStress(x, delta, y, dist)
		if prev > 0 && (prev-cur)/prev < eps {
			prev = cur
			break
		}
		prev = cur
	}
	return y, prev, nil
}

// pointStress is the single-point raw stress Σ (δ_i − ‖y−x_i‖)². It
// leaves ‖y−x_i‖ in dist[i].
func pointStress(x []Coord, delta []float64, y Coord, dist []float64) float64 {
	var s float64
	for i, p := range x {
		d := y.Dist(p)
		dist[i] = d
		diff := delta[i] - d
		s += diff * diff
	}
	return s
}
