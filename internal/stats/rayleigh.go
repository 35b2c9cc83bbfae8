package stats

import "math"

// RayleighWeight implements the violation-range radius of §3.2.2:
//
//	R = d · exp(−d² / (2c²))
//
// where d is the distance between a violation-state and its nearest
// safe-state and c is the median of the coordinate range of the mapped
// space. The shape deliberately mirrors a Rayleigh density scaled by d:
//
//   - R → 0 as d → 0: with a known safe-state immediately adjacent, the
//     unexplored neighbourhood assumed dangerous shrinks to nothing;
//   - R grows for moderate d, peaking at d = c with R = c·e^(−1/2);
//   - R decays again for d ≫ c, so a far-away safe-state never inflates
//     the forbidden disc across the whole map.
//
// The returned radius always satisfies 0 ≤ R < d for d > 0 (the range can
// never swallow the nearest safe-state itself), which tests assert as a
// property.
func RayleighWeight(d, c float64) float64 {
	if d <= 0 || c <= 0 || math.IsNaN(d) || math.IsNaN(c) {
		return 0
	}
	return d * math.Exp(-(d*d)/(2*c*c))
}
