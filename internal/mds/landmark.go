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
	// Stress is the normalized stress-1 of the landmark subproblem.
	Stress float64
	// CoverRadius is the largest dissimilarity between any point and its
	// nearest landmark: the landmark set covers the data to within it. A
	// later point farther than this from every landmark is one the
	// farthest-point selection would have picked.
	CoverRadius float64
}

// LandmarkMDSVectors embeds vectors using k landmarks chosen by greedy
// farthest-point (maxmin) selection; k is clamped to [3, n], and with
// k = n it reduces to plain SMACOF. It never materializes the n×n
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
	if opts.RNG == nil {
		return nil, fmt.Errorf("mds: RNG required for landmark selection")
	}
	k = min(max(k, 3), n)

	// The selection measures every point against every landmark it picks;
	// the landmark submatrix and the triangulation read those distances
	// instead of measuring them again.
	landmarks, cover, dists := MaxminLandmarks(vectors, k, opts.RNG)
	sub, err := NewMatrix(len(landmarks))
	if err != nil {
		return nil, err
	}
	for i, li := range landmarks {
		for j := i + 1; j < len(landmarks); j++ {
			sub.Set(i, j, dists[li*k+j])
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
	isLandmark := make([]bool, n)
	for i, li := range landmarks {
		isLandmark[li] = true
		config[li] = res.Config[i]
	}
	for p := range config {
		if isLandmark[p] {
			continue
		}
		pos, _, err := Place(res.Config, dists[p*k:p*k+len(landmarks)], PlaceOptions{})
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

// MaxminLandmarks greedily picks k points maximizing the minimum distance
// to already-chosen landmarks, starting from a random seed point. This is
// the standard farthest-point heuristic: it spreads landmarks across the
// data's extent so the triangulation anchors every region. The second
// result is the covering radius — the distance from the farthest
// remaining point to its nearest landmark, which the selection has in
// hand as the score of the point it would pick next. The third holds the
// distance from point p to the c-th landmark at dists[p*k+c]. k must be
// in [1, len(vectors)].
func MaxminLandmarks(vectors [][]float64, k int, rng *rand.Rand) ([]int, float64, []float64) {
	n := len(vectors)
	chosen := make([]int, 0, k)
	dists := make([]float64, n*k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	var cover float64
	next := rng.Intn(n)
	for len(chosen) < k {
		c := len(chosen)
		chosen = append(chosen, next)
		best := -1
		cover = 0
		for i, v := range vectors {
			d := Euclidean(v, vectors[next])
			dists[i*k+c] = d
			if d < minDist[i] {
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
	return chosen, cover, dists
}
