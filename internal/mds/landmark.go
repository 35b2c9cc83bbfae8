package mds

import (
	"fmt"
	"math"
	"math/rand"
)

// Landmark MDS — the "fast approximation to multidimensional scaling" §4
// cites as the alternative to representative-sample reduction: embed only
// k landmark points with full SMACOF, then place every remaining point
// against the landmark configuration with Place. Cost drops from O(n²)
// per iteration to O(k² + n·k).

// LandmarkResult carries the output of a landmark MDS run.
type LandmarkResult struct {
	// Config is the full embedded configuration (all n points), centered.
	Config []Coord
	// Landmarks are the indices chosen as landmarks.
	Landmarks []int
	// Stress is the normalized stress-1 of the *full* configuration
	// against the complete dissimilarity matrix.
	Stress float64
	// CoverRadius is the largest dissimilarity between any point and its
	// nearest landmark: the landmark set covers the data to within it. A
	// later point farther than this from every landmark is one the
	// farthest-point selection would have picked.
	CoverRadius float64
}

// LandmarkMDS embeds delta using k landmarks chosen by greedy farthest-
// point (maxmin) selection. k is clamped to [3, n]; with k = n it reduces
// to plain SMACOF.
func LandmarkMDS(delta *Matrix, k int, opts Options) (*LandmarkResult, error) {
	n := delta.Size()
	if n == 0 {
		return nil, fmt.Errorf("mds: empty dissimilarity matrix")
	}
	res, err := landmarkMDS(n, k, delta.At, opts)
	if err != nil {
		return nil, err
	}
	// The caller already paid for the full matrix, so the exact full-
	// configuration stress is affordable here.
	res.Stress = Stress1(delta, res.Config)
	return res, nil
}

// LandmarkMDSVectors runs landmark MDS directly from the data vectors,
// computing distances on demand. It never materializes the n×n
// dissimilarity matrix, so memory stays O(n·k) and time O(n·k) plus the
// O(k²) landmark solve — the difference between a 10⁵-state refresh
// finishing in milliseconds and allocating tens of gigabytes. Stress is
// the landmark subproblem's stress (the full-configuration stress would
// need the quadratic matrix this function exists to avoid).
func LandmarkMDSVectors(vectors [][]float64, k int, opts Options) (*LandmarkResult, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("mds: no vectors")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("mds: vector %d has dimension %d, want %d", i, len(v), dim)
		}
	}
	return landmarkMDS(n, k, func(i, j int) float64 {
		return Euclidean(vectors[i], vectors[j])
	}, opts)
}

// landmarkMDS is the shared core: n points whose dissimilarities are read
// through dist, k landmarks. The returned Stress is the landmark
// subproblem's stress; LandmarkMDS overwrites it with the exact value.
func landmarkMDS(n, k int, dist func(i, j int) float64, opts Options) (*LandmarkResult, error) {
	if opts.RNG == nil {
		return nil, fmt.Errorf("mds: RNG required for landmark selection")
	}
	if k < 3 {
		k = 3
	}
	if k > n {
		k = n
	}

	landmarks, cover := maxminLandmarks(n, k, dist, opts.RNG)

	// Full SMACOF on the landmark submatrix.
	sub, err := NewMatrix(len(landmarks))
	if err != nil {
		return nil, err
	}
	for i, li := range landmarks {
		for j, lj := range landmarks {
			if j > i {
				sub.Set(i, j, dist(li, lj))
			}
		}
	}
	subOpts := opts
	subOpts.Init = nil
	res, err := SMACOF(sub, subOpts)
	if err != nil {
		return nil, err
	}

	// Place every non-landmark against the landmark configuration.
	config := make([]Coord, n)
	isLandmark := make(map[int]int, len(landmarks))
	for i, li := range landmarks {
		isLandmark[li] = i
		config[li] = res.Config[i]
	}
	d := make([]float64, len(landmarks))
	for p := 0; p < n; p++ {
		if _, ok := isLandmark[p]; ok {
			continue
		}
		for i, li := range landmarks {
			d[i] = dist(p, li)
		}
		pos, _, err := Place(res.Config, d, PlaceOptions{})
		if err != nil {
			return nil, err
		}
		config[p] = pos
	}
	centerConfig(config)
	return &LandmarkResult{
		Config:      config,
		Landmarks:   landmarks,
		Stress:      res.Stress,
		CoverRadius: cover,
	}, nil
}

// maxminLandmarks greedily picks k points maximizing the minimum distance
// to already-chosen landmarks, starting from a random seed point. This is
// the standard farthest-point heuristic: it spreads landmarks across the
// data's extent so the triangulation anchors every region. The second
// result is the covering radius — the distance from the farthest
// remaining point to its nearest landmark, which the selection has in
// hand as the score of the point it would pick next.
func maxminLandmarks(n, k int, dist func(i, j int) float64, rng *rand.Rand) ([]int, float64) {
	chosen := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	var cover float64
	next := rng.Intn(n)
	for len(chosen) < k {
		chosen = append(chosen, next)
		best := -1
		cover = 0
		for i := 0; i < n; i++ {
			if d := dist(i, next); d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > cover {
				best, cover = i, minDist[i]
			}
		}
		if best < 0 {
			break // all remaining points coincide with landmarks
		}
		next = best
	}
	return chosen, cover
}
