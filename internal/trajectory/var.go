package trajectory

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mds"
)

// VAR(1) forecasting — the alternative §3.1 names and rejects: "A natural
// technique for forecasting in high dimensions is Vector Autoregressive
// Models (VAR)... leading to unreliable parameter estimation." In the 2-D
// mapped space a VAR(1) is perfectly estimable, so this implementation
// serves as the comparison baseline: it excels on smooth linear
// trajectories (Soplex-like) and degrades on the mode-switching,
// oscillating trajectories the histogram models were designed for.

// VARModel fits x_{t+1} = A·x_t + b by least squares over a sliding window
// of positions and predicts the next position with Gaussian residual
// uncertainty.
type VARModel struct {
	window    []mds.Coord
	maxWindow int

	// fitted parameters (valid when fitted is true)
	fitted     bool
	a          [2][2]float64
	b          [2]float64
	residStdX  float64
	residStdY  float64
	fitDirty   bool
	minSamples int
}

// NewVARModel returns a VAR(1) model over a sliding window of at most
// window positions. window must allow a meaningful fit (≥ 8).
//
//lint:stayaway-ignore deadcode EXPERIMENTS.md §3.1 cites its test, and the ROADMAP's forecaster bake-off (item 2(d)) keeps or deletes it
func NewVARModel(window int) (*VARModel, error) {
	if window < 8 {
		return nil, fmt.Errorf("trajectory: VAR window must be ≥ 8, got %d", window)
	}
	return &VARModel{maxWindow: window, minSamples: 8}, nil
}

// Observe appends a position to the window.
func (m *VARModel) Observe(p mds.Coord) {
	if len(m.window) == m.maxWindow {
		copy(m.window, m.window[1:])
		m.window[len(m.window)-1] = p
	} else {
		m.window = append(m.window, p)
	}
	m.fitDirty = true
}

// Count returns how many positions are in the window.
func (m *VARModel) Count() int { return len(m.window) }

// Ready reports whether enough positions exist to fit.
func (m *VARModel) Ready() bool { return len(m.window) >= m.minSamples }

// fit solves the least-squares problem for both output dimensions against
// regressors (x, y, 1).
func (m *VARModel) fit() bool {
	if !m.Ready() {
		return false
	}
	if m.fitted && !m.fitDirty {
		return true
	}
	n := len(m.window) - 1
	// Normal equations: G·θ = h with G = Σ r rᵀ (r = [x y 1]).
	var g [3][3]float64
	var hx, hy [3]float64
	for i := 0; i < n; i++ {
		r := [3]float64{m.window[i].X, m.window[i].Y, 1}
		next := m.window[i+1]
		for p := 0; p < 3; p++ {
			for q := 0; q < 3; q++ {
				g[p][q] += r[p] * r[q]
			}
			hx[p] += r[p] * next.X
			hy[p] += r[p] * next.Y
		}
	}
	thetaX, okX := solve3(g, hx)
	thetaY, okY := solve3(g, hy)
	if !okX || !okY {
		return false
	}
	m.a = [2][2]float64{{thetaX[0], thetaX[1]}, {thetaY[0], thetaY[1]}}
	m.b = [2]float64{thetaX[2], thetaY[2]}

	// Residual spread models prediction uncertainty.
	var sx, sy float64
	for i := 0; i < n; i++ {
		px, py := m.apply(m.window[i])
		dx := m.window[i+1].X - px
		dy := m.window[i+1].Y - py
		sx += dx * dx
		sy += dy * dy
	}
	m.residStdX = math.Sqrt(sx / float64(n))
	m.residStdY = math.Sqrt(sy / float64(n))
	m.fitted = true
	m.fitDirty = false
	return true
}

func (m *VARModel) apply(p mds.Coord) (x, y float64) {
	x = m.a[0][0]*p.X + m.a[0][1]*p.Y + m.b[0]
	y = m.a[1][0]*p.X + m.a[1][1]*p.Y + m.b[1]
	return x, y
}

// PredictFrom generates n candidate next positions from cur: the fitted
// linear map plus Gaussian residual noise. Before the model is Ready (or
// when the fit is degenerate) it predicts staying in place.
func (m *VARModel) PredictFrom(cur mds.Coord, rng *rand.Rand, n int) []mds.Coord {
	out := make([]mds.Coord, n)
	if !m.fit() {
		for i := range out {
			out[i] = cur
		}
		return out
	}
	px, py := m.apply(cur)
	for i := range out {
		out[i] = mds.Coord{
			X: px + rng.NormFloat64()*m.residStdX,
			Y: py + rng.NormFloat64()*m.residStdY,
		}
	}
	return out
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting; ok is false for (near-)singular systems.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	// Augment.
	var m [3][4]float64
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return [3]float64{}, false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for q := col; q < 4; q++ {
			m[col][q] *= inv
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			for q := col; q < 4; q++ {
				m[r][q] -= f * m[col][q]
			}
		}
	}
	return [3]float64{m[0][3], m[1][3], m[2][3]}, true
}
