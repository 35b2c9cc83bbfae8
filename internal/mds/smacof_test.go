package mds

import (
	"math"
	"math/rand"
	"testing"
)

// planted2D builds a dissimilarity matrix from known 2-D positions, so a
// perfect embedding (stress ≈ 0) must exist.
func planted2D(points []Coord) *Matrix {
	m, _ := NewMatrix(len(points))
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			m.Set(i, j, points[i].Dist(points[j]))
		}
	}
	return m
}

func TestSMACOFRecoversPlanarConfiguration(t *testing.T) {
	truth := []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 2}, {-1, 0.5}, {2, 1.5}}
	delta := planted2D(truth)
	res, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stress > 1e-3 {
		t.Errorf("stress = %v, want ≈0 for planted 2-D data", res.Stress)
	}
	// Pairwise distances must be reproduced.
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			want := truth[i].Dist(truth[j])
			got := res.Config[i].Dist(res.Config[j])
			if math.Abs(got-want) > 1e-2 {
				t.Errorf("d(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSMACOFHighDimensionalClusters(t *testing.T) {
	// Two tight 8-D clusters far apart must embed as two separated groups:
	// this is the property Stay-Away depends on — QoS-violation vectors
	// "are mapped farther away from the group of normal executions".
	rng := rand.New(rand.NewSource(2))
	var vecs [][]float64
	for i := 0; i < 10; i++ {
		v := make([]float64, 8)
		for d := range v {
			v[d] = 0.1 + rng.Float64()*0.05 // cluster A near 0.1
		}
		vecs = append(vecs, v)
	}
	for i := 0; i < 10; i++ {
		v := make([]float64, 8)
		for d := range v {
			v[d] = 0.9 + rng.Float64()*0.05 // cluster B near 0.9
		}
		vecs = append(vecs, v)
	}
	delta, err := DistanceMatrix(vecs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SMACOF(delta, DefaultOptions(rng))
	if err != nil {
		t.Fatal(err)
	}
	// Max intra-cluster embedded distance must be far below min
	// inter-cluster distance.
	var maxIntra, minInter float64
	minInter = math.Inf(1)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			d := res.Config[i].Dist(res.Config[j])
			sameCluster := (i < 10) == (j < 10)
			if sameCluster && d > maxIntra {
				maxIntra = d
			}
			if !sameCluster && d < minInter {
				minInter = d
			}
		}
	}
	if minInter < 3*maxIntra {
		t.Errorf("clusters not separated: maxIntra=%v minInter=%v", maxIntra, minInter)
	}
}

func TestSMACOFMonotoneStress(t *testing.T) {
	// Each Guttman transform must not increase raw stress.
	rng := rand.New(rand.NewSource(3))
	vecs := make([][]float64, 15)
	for i := range vecs {
		v := make([]float64, 5)
		for d := range v {
			v[d] = rng.Float64()
		}
		vecs[i] = v
	}
	delta, _ := DistanceMatrix(vecs)
	x := randomConfig(15, rng)
	next, diag := make([]Coord, len(x)), make([]float64, len(x))
	prev := guttmanStep(delta, x, next, diag)
	for iter := 0; iter < 50; iter++ {
		x, next = next, x
		cur := guttmanStep(delta, x, next, diag)
		if cur > prev+1e-9 {
			t.Fatalf("stress increased at iter %d: %v -> %v", iter, prev, cur)
		}
		prev = cur
	}
}

func TestSMACOFSinglePoint(t *testing.T) {
	m, _ := NewMatrix(1)
	res, err := SMACOF(m, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Config) != 1 || !res.Converged {
		t.Errorf("single point result: %+v", res)
	}
}

func TestSMACOFTwoPoints(t *testing.T) {
	m, _ := NewMatrix(2)
	m.Set(0, 1, 4)
	res, err := SMACOF(m, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Config[0].Dist(res.Config[1]); math.Abs(d-4) > 1e-6 {
		t.Errorf("embedded distance = %v, want 4", d)
	}
}

func TestSMACOFIdenticalPoints(t *testing.T) {
	// All dissimilarities zero: embedding must collapse with zero stress.
	m, _ := NewMatrix(5)
	res, err := SMACOF(m, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stress != 0 {
		t.Errorf("stress = %v, want 0 for identical points", res.Stress)
	}
	for i := 1; i < 5; i++ {
		if d := res.Config[0].Dist(res.Config[i]); d > 1e-6 {
			t.Errorf("points did not collapse: d(0,%d)=%v", i, d)
		}
	}
}

func TestSMACOFWithProvidedInit(t *testing.T) {
	truth := []Coord{{0, 0}, {2, 0}, {0, 2}}
	delta := planted2D(truth)
	res, err := SMACOF(delta, Options{MaxIter: 100, Epsilon: 1e-9, Init: truth})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stress > 1e-6 {
		t.Errorf("stress from perfect init = %v, want ≈0", res.Stress)
	}
}

func TestSMACOFOptionValidation(t *testing.T) {
	m, _ := NewMatrix(3)
	rng := rand.New(rand.NewSource(1))
	if _, err := SMACOF(m, Options{MaxIter: 0, RNG: rng}); err == nil {
		t.Error("MaxIter=0 should error")
	}
	if _, err := SMACOF(m, Options{MaxIter: 10, Epsilon: math.NaN(), RNG: rng}); err == nil {
		t.Error("NaN epsilon should error")
	}
	if _, err := SMACOF(m, Options{MaxIter: 10}); err == nil {
		t.Error("nil RNG without Init should error")
	}
	if _, err := SMACOF(m, Options{MaxIter: 10, Init: []Coord{{0, 0}}}); err == nil {
		t.Error("mismatched Init length should error")
	}
}

func TestSMACOFDeterministic(t *testing.T) {
	vecs := [][]float64{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {1, 1, 1}, {0.5, 0.2, 0.9}}
	delta, _ := DistanceMatrix(vecs)
	a, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Config {
		if a.Config[i] != b.Config[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a.Config[i], b.Config[i])
		}
	}
}

func TestTorgersonExactForPlanarData(t *testing.T) {
	truth := []Coord{{0, 0}, {3, 0}, {0, 4}, {3, 4}}
	delta := planted2D(truth)
	x := Torgerson(delta, rand.New(rand.NewSource(1)))
	// Classical scaling is exact for planar Euclidean data: check all
	// pairwise distances.
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			want := truth[i].Dist(truth[j])
			got := x[i].Dist(x[j])
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("torgerson d(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestTorgersonCollinearData(t *testing.T) {
	// Points on a line: second eigenvalue ~0; must not produce NaNs.
	truth := []Coord{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	delta := planted2D(truth)
	x := Torgerson(delta, rand.New(rand.NewSource(1)))
	for i, p := range x {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("NaN at %d: %v", i, p)
		}
	}
	if d := x[0].Dist(x[3]); math.Abs(d-3) > 1e-3 {
		t.Errorf("collinear span = %v, want 3", d)
	}
}

func TestStress1Degenerate(t *testing.T) {
	m, _ := NewMatrix(3)
	// All-zero delta with coincident config: perfect.
	x := []Coord{{0, 0}, {0, 0}, {0, 0}}
	if got := Stress1(m, x); got != 0 {
		t.Errorf("stress of exact zero fit = %v, want 0", got)
	}
	// All-zero delta with spread config: infinitely bad.
	x2 := []Coord{{0, 0}, {1, 0}, {0, 1}}
	if got := Stress1(m, x2); !math.IsInf(got, 1) {
		t.Errorf("stress of impossible fit = %v, want +Inf", got)
	}
}

func BenchmarkSMACOF50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vecs := make([][]float64, 50)
	for i := range vecs {
		v := make([]float64, 8)
		for d := range v {
			v[d] = rng.Float64()
		}
		vecs[i] = v
	}
	delta, _ := DistanceMatrix(vecs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(1)))); err != nil {
			b.Fatal(err)
		}
	}
}
