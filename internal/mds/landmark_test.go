package mds

import (
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

func TestLandmarkMDSValidation(t *testing.T) {
	m, _ := NewMatrix(5)
	if _, err := LandmarkMDS(m, 3, Options{MaxIter: 10}); err == nil {
		t.Error("nil RNG should error")
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
	lm, err := LandmarkMDS(delta, 12, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Config) != 90 || len(lm.Landmarks) != 12 {
		t.Fatalf("config=%d landmarks=%d", len(lm.Config), len(lm.Landmarks))
	}
	// Landmark stress stays within a modest factor of full SMACOF stress.
	if lm.Stress > full.Stress*3+0.05 {
		t.Errorf("landmark stress %v too far above full %v", lm.Stress, full.Stress)
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
	delta := planted2D(truth)
	lm, err := LandmarkMDS(delta, 5, DefaultOptions(rand.New(rand.NewSource(2))))
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
	delta := planted2D(truth)
	lm, err := LandmarkMDS(delta, 1, DefaultOptions(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Landmarks) != 3 {
		t.Errorf("landmarks = %d, want clamped 3", len(lm.Landmarks))
	}
	if lm.Stress > 0.05 {
		t.Errorf("stress = %v for exact planar data", lm.Stress)
	}
}

func TestLandmarkMDSCoincidentPoints(t *testing.T) {
	// All points identical: selection must terminate, config collapses.
	m, _ := NewMatrix(6)
	lm, err := LandmarkMDS(m, 4, DefaultOptions(rand.New(rand.NewSource(4))))
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
	delta := planted2D(truth)
	lms, _ := maxminLandmarks(delta.Size(), 2, delta.At, rand.New(rand.NewSource(5)))
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

func TestLandmarkVectorsMatchesMatrixPath(t *testing.T) {
	// The vector path must be the same algorithm as the matrix path — only
	// the distance storage differs. Same seed → identical landmarks and
	// configuration (stress definitions differ by design).
	rng := rand.New(rand.NewSource(9))
	vecs := clusteredVectors(rng, 14) // ~40 points
	delta, err := DistanceMatrix(vecs)
	if err != nil {
		t.Fatal(err)
	}
	viaMatrix, err := LandmarkMDS(delta, 12, DefaultOptions(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	viaVectors, err := LandmarkMDSVectors(vecs, 12, DefaultOptions(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	if len(viaMatrix.Landmarks) != len(viaVectors.Landmarks) {
		t.Fatalf("landmark counts differ: %v vs %v", viaMatrix.Landmarks, viaVectors.Landmarks)
	}
	for i, l := range viaMatrix.Landmarks {
		if viaVectors.Landmarks[i] != l {
			t.Fatalf("landmark %d differs: %d vs %d", i, l, viaVectors.Landmarks[i])
		}
	}
	for i, p := range viaMatrix.Config {
		if p.Dist(viaVectors.Config[i]) > 1e-9 {
			t.Fatalf("config %d differs: %v vs %v", i, p, viaVectors.Config[i])
		}
	}
}

func BenchmarkLandmarkVsFull200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vecs := clusteredVectors(rng, 67) // ~200 points
	delta, err := DistanceMatrix(vecs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("landmark-k20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LandmarkMDS(delta, 20, DefaultOptions(rand.New(rand.NewSource(1)))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-smacof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(1)))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
