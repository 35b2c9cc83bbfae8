package mds

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func clusteredVectors(rng *rand.Rand, nPerCluster int) [][]float64 {
	centers := [][]float64{
		{0.1, 0.1, 0.1, 0.1},
		{0.9, 0.9, 0.1, 0.1},
		{0.1, 0.9, 0.9, 0.5},
	}
	var out [][]float64
	for _, c := range centers {
		for i := 0; i < nPerCluster; i++ {
			v := make([]float64, len(c))
			for d := range v {
				v[d] = c[d] + rng.NormFloat64()*0.02
			}
			out = append(out, v)
		}
	}
	return out
}

// randomVectors draws n points uniformly from the dim-dimensional unit cube.
func randomVectors(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for d := range out[i] {
			out[i][d] = rng.Float64()
		}
	}
	return out
}

// vectorsOf turns 2-D points into the vectors whose Euclidean distances
// are the points' distances.
func vectorsOf(points []Coord) [][]float64 {
	out := make([][]float64, len(points))
	for i, p := range points {
		out[i] = []float64{p.X, p.Y}
	}
	return out
}

// referenceLandmarkMDS is LandmarkMDSVectors measuring every distance
// where it is read: the selection, the landmark submatrix and each
// triangulation compute their own.
func referenceLandmarkMDS(vectors [][]float64, k int, opts Options) (*LandmarkResult, error) {
	n := len(vectors)
	k = min(max(k, 3), n)
	dist := func(i, j int) float64 { return Euclidean(vectors[i], vectors[j]) }

	landmarks := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	var cover float64
	next := opts.RNG.Intn(n)
	for len(landmarks) < k {
		landmarks = append(landmarks, next)
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
			break
		}
		next = best
	}

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
	res, err := SMACOF(sub, opts)
	if err != nil {
		return nil, err
	}
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
		if config[p], _, err = Place(res.Config, d, PlaceOptions{}); err != nil {
			return nil, err
		}
	}
	centerConfig(config)
	return &LandmarkResult{Config: config, Landmarks: landmarks, Stress: res.Stress, CoverRadius: cover}, nil
}

// TestLandmarkMDSVectorsMatchesReference: reading the selection's
// distances instead of measuring them again changes no bit of the result.
func TestLandmarkMDSVectorsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20140806))
	clusters := clusteredVectors(rng, 14)
	withDuplicates := randomVectors(rng, 40, 8)
	copy(withDuplicates[20:], withDuplicates[:20])
	coincident := make([][]float64, 6)
	for i := range coincident {
		coincident[i] = []float64{0.3, 0.7}
	}
	cases := []struct {
		name    string
		vectors [][]float64
		k       int
	}{
		{"clusters k=12", clusters, 12},
		{"random-8d k=32", randomVectors(rng, 300, 8), 32},
		{"duplicates k=25", withDuplicates, 25},
		{"coincident k=4", coincident, 4},
		{"k=n", clusters, len(clusters)},
		{"k>n", clusters, len(clusters) + 5},
		{"n=2 k>n", randomVectors(rng, 2, 8), 5},
		{"n=1", randomVectors(rng, 1, 8), 3},
		{"k clamped to 3", randomVectors(rng, 10, 8), 1},
	}
	for _, c := range cases {
		seed := rng.Int63()
		got, err := LandmarkMDSVectors(c.vectors, c.k, DefaultOptions(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := referenceLandmarkMDS(c.vectors, c.k, DefaultOptions(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if fmt.Sprint(got.Landmarks) != fmt.Sprint(want.Landmarks) {
			t.Errorf("%s: landmarks %v, reference %v", c.name, got.Landmarks, want.Landmarks)
		}
		if !sameBits(got.Stress, want.Stress) || !sameBits(got.CoverRadius, want.CoverRadius) {
			t.Errorf("%s: stress %v cover %v, reference %v cover %v",
				c.name, got.Stress, got.CoverRadius, want.Stress, want.CoverRadius)
		}
		for i := range want.Config {
			if !sameCoordBits(got.Config[i], want.Config[i]) {
				t.Errorf("%s: point %d at %v, reference %v", c.name, i, got.Config[i], want.Config[i])
				break
			}
		}
	}
}

func TestLandmarkMDSValidation(t *testing.T) {
	vecs := randomVectors(rand.New(rand.NewSource(1)), 5, 2)
	if _, err := LandmarkMDSVectors(vecs, 3, Options{MaxIter: 10}); err == nil {
		t.Error("nil RNG should error")
	}
	opts := DefaultOptions(rand.New(rand.NewSource(1)))
	if _, err := LandmarkMDSVectors(nil, 3, opts); err == nil {
		t.Error("no vectors should error")
	}
	if _, err := LandmarkMDSVectors([][]float64{{0, 1}, {1}}, 3, opts); err == nil {
		t.Error("mismatched dimensions should error")
	}
}

func TestLandmarkMDSMatchesFullOnClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vecs := clusteredVectors(rng, 30) // 90 points
	delta, err := DistanceMatrix(vecs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := LandmarkMDSVectors(vecs, 12, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Config) != 90 || len(lm.Landmarks) != 12 {
		t.Fatalf("config=%d landmarks=%d", len(lm.Config), len(lm.Landmarks))
	}
	// The full configuration's stress stays within a modest factor of full
	// SMACOF stress.
	if stress := Stress1(delta, lm.Config); stress > full.Stress*3+0.05 {
		t.Errorf("landmark stress %v too far above full %v", stress, full.Stress)
	}
	// Cluster separation must survive: max intra vs min inter distance.
	var maxIntra, minInter float64
	minInter = 1e18
	for i := 0; i < 90; i++ {
		for j := i + 1; j < 90; j++ {
			d := lm.Config[i].Dist(lm.Config[j])
			if i/30 == j/30 {
				if d > maxIntra {
					maxIntra = d
				}
			} else if d < minInter {
				minInter = d
			}
		}
	}
	if minInter < 2*maxIntra {
		t.Errorf("clusters blurred: intra=%v inter=%v", maxIntra, minInter)
	}
}

func TestLandmarkMDSKEqualsN(t *testing.T) {
	truth := []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 0.5}}
	lm, err := LandmarkMDSVectors(vectorsOf(truth), 5, DefaultOptions(rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	if lm.Stress > 1e-3 {
		t.Errorf("k=n stress = %v, want ≈0", lm.Stress)
	}
}

func TestLandmarkMDSTinyK(t *testing.T) {
	// k below 3 clamps to 3.
	truth := []Coord{{0, 0}, {3, 0}, {0, 4}, {3, 4}}
	lm, err := LandmarkMDSVectors(vectorsOf(truth), 1, DefaultOptions(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Landmarks) != 3 {
		t.Errorf("landmarks = %d, want clamped 3", len(lm.Landmarks))
	}
	if stress := Stress1(planted2D(truth), lm.Config); stress > 0.05 {
		t.Errorf("stress = %v for exact planar data", stress)
	}
}

func TestLandmarkMDSCoincidentPoints(t *testing.T) {
	// All points identical: selection must terminate, config collapses.
	vecs := vectorsOf(make([]Coord, 6))
	lm, err := LandmarkMDSVectors(vecs, 4, DefaultOptions(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range lm.Config {
		if p.Dist(lm.Config[0]) > 1e-6 {
			t.Errorf("point %d did not collapse: %v", i, p)
		}
	}
}

func TestMaxminLandmarksSpread(t *testing.T) {
	// Two far clusters: the first two landmarks must hit both clusters.
	truth := []Coord{{0, 0}, {0.1, 0}, {0.2, 0}, {10, 0}, {10.1, 0}, {10.2, 0}}
	lms, _, _ := MaxminLandmarks(vectorsOf(truth), 2, rand.New(rand.NewSource(5)))
	if len(lms) != 2 {
		t.Fatalf("landmarks = %v", lms)
	}
	sideA := lms[0] < 3
	sideB := lms[1] < 3
	if sideA == sideB {
		t.Errorf("landmarks %v landed in one cluster", lms)
	}
}

func TestLandmarkCoverRadius(t *testing.T) {
	// CoverRadius is the farthest any point sits from its nearest
	// landmark, and 0 once every point is a landmark.
	rng := rand.New(rand.NewSource(17))
	vecs := clusteredVectors(rng, 30)
	for _, k := range []int{3, 10, len(vecs)} {
		res, err := LandmarkMDSVectors(vecs, k, DefaultOptions(rng))
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, v := range vecs {
			nearest := math.Inf(1)
			for _, l := range res.Landmarks {
				nearest = math.Min(nearest, Euclidean(v, vecs[l]))
			}
			want = math.Max(want, nearest)
		}
		if res.CoverRadius != want {
			t.Errorf("k=%d: CoverRadius %v, brute force %v", k, res.CoverRadius, want)
		}
		if k == len(vecs) && res.CoverRadius != 0 {
			t.Errorf("k=n: CoverRadius %v, want 0", res.CoverRadius)
		}
	}
}

// BenchmarkLandmarkMDSVectors is the landmark solve at the size the
// benchmark harness's fleet template has: 1100 random 8-D vectors, 128
// landmarks.
func BenchmarkLandmarkMDSVectors(b *testing.B) {
	vecs := randomVectors(rand.New(rand.NewSource(1)), 1100, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LandmarkMDSVectors(vecs, 128, DefaultOptions(rand.New(rand.NewSource(1)))); err != nil {
			b.Fatal(err)
		}
	}
}
