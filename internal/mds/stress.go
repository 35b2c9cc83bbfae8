package mds

import "math"

// Stress1 returns Kruskal's normalized stress-1,
//
//	sqrt( Σ (δ_ij − d_ij)² / Σ δ_ij² ),
//
// the standard figure of merit for an MDS embedding. §5 of the paper uses
// "low stress value" as the criterion that a 2-D representation is
// adequate; values below ~0.15 are conventionally considered good.
func Stress1(delta *Matrix, x []Coord) float64 {
	var num, den float64
	n := delta.Size()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := x[i].Dist(x[j])
			diff := delta.At(i, j) - d
			num += diff * diff
			den += delta.At(i, j) * delta.At(i, j)
		}
	}
	if den == 0 {
		// All dissimilarities are zero: any coincident embedding is exact.
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
