package mds

import (
	"fmt"
	"math"
)

// Incremental single-point placement. Re-running full SMACOF every
// monitoring period is wasteful when only one new state arrives; §4 of the
// paper points to incremental MDS variants for exactly this reason. Place
// positions one new point y against a frozen existing configuration by
// minimizing the single-point stress
//
//	σ(y) = Σ_i (δ_i − ‖y − x_i‖)²
//
// with a safeguarded Newton iteration. With u_i = y − x_i, d_i = ‖u_i‖
// and r_i = δ_i/d_i, the Hessian of σ/2 is H = Σ_i (1 − r_i)·I +
// (r_i/d_i²)·u_i u_iᵀ and its gradient n·y − s, where s/n = Σ_i (x_i +
// r_i·u_i)/n is the Guttman update restricted to the new row. The Newton
// step is kept only if σ does not increase; otherwise, and on flat anchor
// sets, Place takes the majorization step s/n, which never increases σ.
// On a flat set (every two-anchor set, collinear ones, Torgerson's
// jittered starts) Newton can settle y on the anchors' line in one step,
// erasing the perpendicular component a configuration needs to recover its
// second dimension; majorization only shrinks it.

// flatRatio: an anchor set is flat when the smaller eigenvalue of its
// centred scatter is at most flatRatio times the larger.
const flatRatio = 1e-9

// PlaceOptions configures incremental placement.
type PlaceOptions struct {
	// MaxIter bounds the evaluation passes after the first (default 50
	// when 0). A pass evaluates σ at one candidate point, and a rejected
	// Newton step costs one, so a call makes at most MaxIter+1 passes.
	MaxIter int
	// Epsilon is the relative improvement convergence threshold
	// (default 1e-9 when 0).
	Epsilon float64
}

// Place embeds one new point with dissimilarities delta[i] to each existing
// configuration point x[i]. It returns the new point's coordinates and the
// final single-point raw stress.
func Place(x []Coord, delta []float64, opts PlaceOptions) (Coord, float64, error) {
	y, stress, _, err := place(x, delta, opts)
	return y, stress, err
}

// place is Place that also reports how many evaluation passes it made.
func place(x []Coord, delta []float64, opts PlaceOptions) (Coord, float64, int, error) {
	if len(x) == 0 {
		// First point ever: the origin is as good as anywhere.
		return Coord{}, 0, 0, nil
	}
	if len(delta) != len(x) {
		return Coord{}, 0, 0, fmt.Errorf("mds: %d dissimilarities for %d anchor points", len(delta), len(x))
	}
	for i, d := range delta {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return Coord{}, 0, 0, fmt.Errorf("mds: invalid dissimilarity %v at %d", d, i)
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
		return Coord{X: x[0].X + delta[0], Y: x[0].Y}, 0, 0, nil
	}
	// Nudge the start off any line through the anchors: the majorization
	// update preserves exact collinearity, so without a perpendicular
	// component a degenerate 1-D configuration could never recover its
	// second dimension.
	var spread, sxx, sxy, syy float64
	for _, p := range x {
		d := p.Sub(centroid)
		if s := math.Abs(d.X) + math.Abs(d.Y); s > spread {
			spread = s
		}
		sxx += d.X * d.X
		sxy += d.X * d.Y
		syy += d.Y * d.Y
	}
	y.Y += 1e-3*spread + 1e-9
	// The centred scatter's eigenvalues are mean ± radius.
	mean, radius := (sxx+syy)/2, math.Hypot((sxx-syy)/2, sxy)
	flat := mean-radius <= flatRatio*(mean+radius)

	n := float64(len(x))
	invN := 1 / n
	passes := 0
	eval := func(y Coord) placeEval {
		passes++
		return placePass(x, delta, y)
	}
	cur := eval(y)
	for passes <= maxIter {
		major := Coord{cur.sx * invN, cur.sy * invN}
		next, newton := major, false
		// Newton needs H positive definite, and defined: no anchor at y.
		if det := cur.hxx*cur.hyy - cur.hxy*cur.hxy; !flat && !cur.coincident && cur.hxx > 0 && det > 0 {
			gx, gy := n*y.X-cur.sx, n*y.Y-cur.sy
			next = Coord{y.X - (cur.hyy*gx-cur.hxy*gy)/det, y.Y - (cur.hxx*gy-cur.hxy*gx)/det}
			newton = true
		}
		nextPass := eval(next)
		// !(a <= b) also rejects a step whose stress is NaN.
		if newton && !(nextPass.stress <= cur.stress) {
			if passes > maxIter {
				break
			}
			next = major
			nextPass = eval(next)
		}
		prev := cur.stress
		y, cur = next, nextPass
		if prev > 0 && (prev-cur.stress)/prev < eps {
			break
		}
	}
	return y, cur.stress, passes, nil
}

// placeEval is what one pass over the anchors learns at a point y.
type placeEval struct {
	stress        float64 // σ(y)
	sx, sy        float64 // majorization sums: the majorization step is (sx, sy)/n
	hxx, hxy, hyy float64 // Hessian of σ/2
	coincident    bool    // an anchor sits exactly at y, where H is undefined
}

// placePass evaluates σ, the majorization sums and the Hessian at y in one
// pass. The stress and the sums use the majorizer's expressions in its
// order, so on flat sets the iteration is the plain majorizer bit for bit.
func placePass(x []Coord, delta []float64, y Coord) placeEval {
	var e placeEval
	var sumR float64
	for i, p := range x {
		ux, uy := y.X-p.X, y.Y-p.Y
		d := math.Hypot(ux, uy)
		diff := delta[i] - d
		e.stress += diff * diff
		if d > 0 {
			r := delta[i] / d
			e.sx += p.X + r*ux
			e.sy += p.Y + r*uy
			sumR += r
			w := r / (d * d)
			e.hxx += w * ux * ux
			e.hxy += w * ux * uy
			e.hyy += w * uy * uy
		} else {
			// Coincident with an anchor: majorizer contribution reduces
			// to the anchor itself; the δ term re-expands on the next
			// iteration once other anchors pull y off the singularity.
			e.sx += p.X
			e.sy += p.Y
			e.coincident = true
		}
	}
	diag := float64(len(x)) - sumR
	e.hxx += diag
	e.hyy += diag
	return e
}
