package stats

import "math"

// Circular statistics for trajectory angles. Absolute step angles live on
// the circle [−π, π); naive linear statistics break at the wrap-around
// (e.g. the "mean" of −179° and +179° must be ±180°, not 0°).

// NormalizeAngle wraps an angle in radians into [−π, π).
func NormalizeAngle(a float64) float64 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return 0
	}
	a = math.Mod(a, 2*math.Pi)
	if a < -math.Pi {
		a += 2 * math.Pi
	} else if a >= math.Pi {
		a -= 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest rotation from a to b, in (−π, π].
func AngleDiff(a, b float64) float64 {
	d := NormalizeAngle(b - a)
	// Exact IEEE boundary canonicalization: NormalizeAngle yields
	// precisely -Pi at the branch cut, and only that one bit pattern
	// must map to +Pi.
	if d == -math.Pi {
		return math.Pi
	}
	return d
}

// CircularVariance returns 1 − R̄ where R̄ is the mean resultant length:
// 0 means all angles identical, 1 means uniformly spread. For an empty
// slice it returns 1 (maximal uncertainty).
func CircularVariance(angles []float64) float64 {
	if len(angles) == 0 {
		return 1
	}
	var sx, sy float64
	for _, a := range angles {
		sx += math.Cos(a)
		sy += math.Sin(a)
	}
	r := math.Hypot(sx, sy) / float64(len(angles))
	return 1 - r
}

// MeanResultantLength returns R̄ in [0,1]: the concentration of the angle
// set. The walk classifier uses this to separate directed (Soplex-like
// linear) trajectories from oscillating co-located ones.
func MeanResultantLength(angles []float64) float64 {
	return 1 - CircularVariance(angles)
}
