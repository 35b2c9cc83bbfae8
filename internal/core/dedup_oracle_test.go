package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mds"
	"repro/internal/statespace"
)

// The map stage keeps one store of representative vectors, its Space, and
// dedups against it. mds.OnlineReducer is the reference for that rule: a
// vector maps onto the first representative within ε, in ID order, or
// becomes a new one, and ε ≤ 0 never merges. These tests drive both with
// the same random streams.

// dedupStage returns a map stage deduping at eps, which is used as given
// (applyDefaults would turn 0 into the default).
func dedupStage(t *testing.T, eps float64, seed int64) *mapStage {
	t.Helper()
	cfg := DefaultConfig("web", []string{"b1"}, testRanges())
	cfg.applyDefaults()
	cfg.DedupEpsilon = eps
	m, err := newMapStage(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reference returns the reducer the stage's dedup must agree with, seeded
// with the stage's states in ID order.
func reference(m *mapStage) *mds.OnlineReducer {
	ref := mds.NewOnlineReducer(m.cfg.DedupEpsilon)
	for _, v := range m.space.Vectors() {
		ref.Observe(v)
	}
	return ref
}

// randomStream returns n vectors of the stage's dimension on a lattice
// that is coarse in most coordinates and fine in two, so that exact
// repeats and near neighbours both occur.
func randomStream(rng *rand.Rand, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, 8)
		for j := range v {
			if j < 2 {
				v[j] = 0.05 * float64(rng.Intn(3))
			} else {
				v[j] = 0.5 * float64(rng.Intn(2))
			}
		}
		out[i] = v
	}
	return out
}

// agree maps every vector through the stage and the reference and fails
// on the first period they disagree.
func agree(t *testing.T, m *mapStage, ref *mds.OnlineReducer, stream [][]float64) (created int) {
	t.Helper()
	for p, v := range stream {
		id, isNew, err := m.mapVector(p, v)
		if err != nil {
			t.Fatal(err)
		}
		rep, refNew := ref.Observe(v)
		if id != rep || isNew != refNew {
			t.Fatalf("ε=%v vector %d %v: stage maps to %d (new %v), reducer to %d (new %v)",
				m.cfg.DedupEpsilon, p, v, id, isNew, rep, refNew)
		}
		if isNew {
			created++
		}
	}
	if m.space.Len() != ref.Len() {
		t.Fatalf("ε=%v: %d states, reducer holds %d representatives", m.cfg.DedupEpsilon, m.space.Len(), ref.Len())
	}
	return created
}

func TestDedupMatchesOnlineReducer(t *testing.T) {
	for i, eps := range []float64{-1, 0, 0.05, 0.12} {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		m := dedupStage(t, eps, int64(i))
		ref := mds.NewOnlineReducer(eps)
		created := agree(t, m, ref, randomStream(rng, 300))
		switch merged := 300 - created; {
		case eps <= 0 && merged != 0:
			t.Errorf("ε=%v merged %d vectors; ε ≤ 0 never merges", eps, merged)
		case eps > 0 && merged == 0:
			t.Errorf("ε=%v: the stream merged nothing; it does not test merging", eps)
		}

		// An imported map dedups like a reducer that observed its states.
		tpl := statespace.Export(m.space, "web", m.normalizer.Snapshot(), m.schema)
		space, err := statespace.Import(tpl)
		if err != nil {
			t.Fatal(err)
		}
		m2 := dedupStage(t, eps, int64(i))
		if err := m2.importSpace(space, tpl.Ranges); err != nil {
			t.Fatalf("ε=%v: import: %v", eps, err)
		}
		agree(t, m2, reference(m2), randomStream(rng, 200))
	}
}

// A template whose states would have merged under the importer's ε is
// rejected, naming the count the reducer would have kept.
func TestImportRejectsCollapsingTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := dedupStage(t, -1, 7)
	agree(t, m, mds.NewOnlineReducer(-1), randomStream(rng, 60))
	tpl := statespace.Export(m.space, "web", m.normalizer.Snapshot(), m.schema)
	for _, eps := range []float64{0.05, 0.12} {
		space, err := statespace.Import(tpl)
		if err != nil {
			t.Fatal(err)
		}
		into := dedupStage(t, eps, 7)
		ref := mds.NewOnlineReducer(eps)
		for _, v := range space.Vectors() {
			ref.Observe(v)
		}
		want := fmt.Sprintf("core: template states collapse under DedupEpsilon %v (%d -> %d)", eps, space.Len(), ref.Len())
		if err := into.importSpace(space, tpl.Ranges); err == nil || err.Error() != want {
			t.Errorf("ε=%v: import error %v, want %q", eps, err, want)
		}
	}
}
