package mds_test

import (
	"fmt"
	"math/rand"

	"repro/internal/mds"
)

// Embedding two well-separated clusters of 8-dimensional measurement
// vectors: the 2-D map preserves the separation (the property Stay-Away's
// violation detection rests on).
func ExampleSMACOF() {
	vectors := [][]float64{
		{0.1, 0.1, 0.1, 0.1}, {0.12, 0.1, 0.11, 0.1}, // cluster A
		{0.9, 0.9, 0.9, 0.9}, {0.88, 0.9, 0.91, 0.9}, // cluster B
	}
	delta, _ := mds.DistanceMatrix(vectors)
	res, _ := mds.SMACOF(delta, mds.DefaultOptions(rand.New(rand.NewSource(1))))

	intra := res.Config[0].Dist(res.Config[1])
	inter := res.Config[0].Dist(res.Config[2])
	fmt.Printf("stress < 0.01: %v\n", res.Stress < 0.01)
	fmt.Printf("clusters separated: %v\n", inter > 10*intra)
	// Output:
	// stress < 0.01: true
	// clusters separated: true
}

// The §4 optimization: near-duplicate samples collapse onto one
// representative, keeping the embedding cost bounded.
func ExampleOnlineReducer() {
	samples := [][]float64{
		{0.50, 0.50},
		{0.501, 0.499}, // within epsilon of the first
		{0.90, 0.10},
	}
	r := mds.NewOnlineReducer(0.01)
	for _, s := range samples {
		r.Observe(s)
	}
	fmt.Printf("representatives: %d\n", r.Len())
	fmt.Printf("weights: %d %d\n", r.Weight(0), r.Weight(1))
	// Output:
	// representatives: 2
	// weights: 2 1
}
