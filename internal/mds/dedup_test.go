package mds

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reduce observes samples in order and returns the reducer and each
// sample's representative.
func reduce(samples [][]float64, epsilon float64) (*OnlineReducer, []int) {
	o := NewOnlineReducer(epsilon)
	assignment := make([]int, len(samples))
	for i, s := range samples {
		assignment[i], _ = o.Observe(s)
	}
	return o, assignment
}

func TestReduceMergesCloseSamples(t *testing.T) {
	samples := [][]float64{
		{0, 0},
		{0.001, 0.001}, // merges with sample 0
		{1, 1},
		{0.999, 1.001}, // merges with sample 2
		{5, 5},
	}
	o, assignment := reduce(samples, 0.01)
	if o.Len() != 3 {
		t.Fatalf("representatives = %d, want 3", o.Len())
	}
	wantAssign := []int{0, 0, 1, 1, 2}
	for i, a := range assignment {
		if a != wantAssign[i] {
			t.Errorf("assignment[%d] = %d, want %d", i, a, wantAssign[i])
		}
	}
	wantWeights := []int{2, 2, 1}
	for i, w := range wantWeights {
		if o.Weight(i) != w {
			t.Errorf("weight[%d] = %d, want %d", i, o.Weight(i), w)
		}
	}
}

func TestReduceZeroEpsilonKeepsAll(t *testing.T) {
	o, _ := reduce([][]float64{{0}, {0}, {0}}, 0)
	if o.Len() != 3 {
		t.Errorf("representatives = %d, want 3 with epsilon=0", o.Len())
	}
}

func TestReduceEmpty(t *testing.T) {
	o := NewOnlineReducer(0.1)
	if o.Len() != 0 || len(o.Representatives()) != 0 {
		t.Errorf("empty reducer: %d representatives", o.Len())
	}
}

func TestReduceRepresentativesAreObservedStates(t *testing.T) {
	o, _ := reduce([][]float64{{1, 2}, {1.0001, 2.0001}, {9, 9}}, 0.01)
	// The representative of the first cluster must be exactly sample 0,
	// never an average.
	if r := o.Representative(0); r[0] != 1 || r[1] != 2 {
		t.Errorf("representative mutated: %v", r)
	}
}

// Property: weights sum to the number of samples, every sample maps within
// epsilon of its representative.
func TestReduceInvariantsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		samples := make([][]float64, len(raw))
		for i, r := range raw {
			samples[i] = []float64{float64(r) / 255}
		}
		const eps = 0.05
		o, assignment := reduce(samples, eps)
		total := 0
		for i := 0; i < o.Len(); i++ {
			total += o.Weight(i)
		}
		if total != len(samples) {
			return false
		}
		for i, a := range assignment {
			if Euclidean(samples[i], o.Representative(a)) > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnlineReducer(t *testing.T) {
	o := NewOnlineReducer(0.1)
	rep, created := o.Observe([]float64{0.5, 0.5})
	if rep != 0 || !created {
		t.Errorf("first observe = %d,%v; want 0,true", rep, created)
	}
	rep, created = o.Observe([]float64{0.55, 0.5})
	if rep != 0 || created {
		t.Errorf("close observe = %d,%v; want 0,false", rep, created)
	}
	rep, created = o.Observe([]float64{0.9, 0.9})
	if rep != 1 || !created {
		t.Errorf("far observe = %d,%v; want 1,true", rep, created)
	}
	if o.Len() != 2 {
		t.Errorf("Len = %d, want 2", o.Len())
	}
	if o.Weight(0) != 2 || o.Weight(1) != 1 {
		t.Errorf("weights = %d,%d; want 2,1", o.Weight(0), o.Weight(1))
	}
}

func TestOnlineReducerCopiesSamples(t *testing.T) {
	o := NewOnlineReducer(0.01)
	s := []float64{1, 2}
	o.Observe(s)
	s[0] = 99
	if o.Representative(0)[0] != 1 {
		t.Error("reducer aliased the caller's slice")
	}
}

func TestReduceCutsSMACOFCost(t *testing.T) {
	// The §4 optimization: heavy duplication should collapse to a tiny
	// representative set whose embedding still reproduces the distinct
	// structure.
	var samples [][]float64
	for i := 0; i < 100; i++ {
		samples = append(samples, []float64{0.1, 0.1})
	}
	for i := 0; i < 100; i++ {
		samples = append(samples, []float64{0.9, 0.9})
	}
	o, assignment := reduce(samples, 0.01)
	if o.Len() != 2 {
		t.Fatalf("representatives = %d, want 2", o.Len())
	}
	delta, err := DistanceMatrix(o.Representatives())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SMACOF(delta, DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Config[assignment[0]].Dist(res.Config[assignment[150]]); d < 0.5 {
		t.Errorf("cluster separation lost after reduction: %v", d)
	}
}
