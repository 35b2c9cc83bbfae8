package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mds"
	"repro/internal/statespace"
)

// Tests for the persistent landmark basis (stage_map.go): what the map
// stage keeps between embedding refreshes, when it re-solves, what makes
// it forget, and what the retained map is worth against a fresh solve.

const basisDim = 6

// newBasisStage is a map stage whose landmark regime starts at 16 states,
// with dedup off so every distinct vector becomes a state.
func newBasisStage(t *testing.T, seed int64) *mapStage {
	t.Helper()
	cfg := baseConfig()
	cfg.LandmarkThreshold = 16
	cfg.DedupEpsilon = -1
	cfg.Seed = seed
	cfg.applyDefaults()
	ms, err := newMapStage(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func randomVector(rng *rand.Rand) []float64 {
	v := make([]float64, basisDim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// feed maps one vector, which must become a new state, and reports
// whether the period re-solved the embedding.
func feed(t *testing.T, ms *mapStage, vec []float64) (id int, solved bool) {
	t.Helper()
	before := ms.refreshes
	id, created, err := ms.mapVector(ms.space.Len(), vec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatalf("vector %v folded into state %d, want a new state", vec, id)
	}
	return id, ms.refreshes != before
}

// grow feeds random vectors until the stage holds n states.
func grow(t *testing.T, ms *mapStage, rng *rand.Rand, n int) {
	t.Helper()
	for ms.space.Len() < n {
		feed(t, ms, randomVector(rng))
	}
}

// covered is a vector strictly inside the basis's covering radius: a
// landmark's own vector, nudged.
func covered(ms *mapStage, rng *rand.Rand) []float64 {
	_, v := ms.space.At(ms.landmarks[rng.Intn(len(ms.landmarks))])
	out := append([]float64(nil), v...)
	out[rng.Intn(len(out))] += ms.coverRadius * 0.5 * rng.Float64()
	return out
}

// farAway lies outside any covering radius a map of unit-cube vectors has.
func farAway(rng *rand.Rand) []float64 {
	v := randomVector(rng)
	for i := range v {
		v[i] += 3
	}
	return v
}

func sameCoord(a, b mds.Coord) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// placedAgainstBasis is where mds.Place puts vec against the current
// landmark coordinates and the distances to the landmark vectors.
func placedAgainstBasis(t *testing.T, ms *mapStage, vec []float64) mds.Coord {
	t.Helper()
	var coords []mds.Coord
	var delta []float64
	for _, l := range ms.landmarks {
		c, v := ms.space.At(l)
		coords = append(coords, c)
		delta = append(delta, mds.Euclidean(vec, v))
	}
	pos, _, err := mds.Place(coords, delta, mds.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

func TestBasisAppearsAboveThresholdOnly(t *testing.T) {
	ms := newBasisStage(t, 1)
	rng := rand.New(rand.NewSource(2))
	grow(t, ms, rng, ms.cfg.LandmarkThreshold)
	if ms.landmarks != nil || ms.refreshesSkipped != 0 {
		t.Fatalf("at the threshold: landmarks %v, %d refreshes skipped; want the full-SMACOF regime",
			ms.landmarks, ms.refreshesSkipped)
	}
	if ms.refreshes == 0 {
		t.Fatal("no refresh ran below the threshold")
	}
	grow(t, ms, rng, 3*ms.cfg.LandmarkThreshold)
	if len(ms.landmarks) != ms.cfg.LandmarkThreshold {
		t.Fatalf("above the threshold: %d landmarks, want %d", len(ms.landmarks), ms.cfg.LandmarkThreshold)
	}
	if ms.coverRadius <= 0 {
		t.Fatalf("covering radius %v, want positive", ms.coverRadius)
	}
}

func TestLandmarkRegimePlacesAgainstBasis(t *testing.T) {
	// Every state created after the last solve sits exactly where Place
	// puts it against the current landmark coordinates, and a period that
	// does not re-solve — a skipped refresh included — moves no coordinate.
	// (States from before the solve are not re-derivable: the solve's
	// Procrustes alignment carries a scale.)
	ms := newBasisStage(t, 3)
	rng := rand.New(rand.NewSource(4))
	grow(t, ms, rng, 2*ms.cfg.LandmarkThreshold)
	if ms.landmarks == nil {
		t.Fatal("no basis to test against")
	}
	sinceSolve := map[int][]float64{}
	skipped := ms.refreshesSkipped
	for i := 0; i < 80; i++ {
		vec := randomVector(rng)
		if i%3 != 0 {
			vec = covered(ms, rng)
		}
		before := ms.space.Coords()
		id, solved := feed(t, ms, vec)
		if solved {
			sinceSolve = map[int][]float64{}
			continue
		}
		sinceSolve[id] = vec
		for j, c := range ms.space.Coords()[:len(before)] {
			if !sameCoord(c, before[j]) {
				t.Fatalf("period %d re-solved nothing but moved state %d from %v to %v", i, j, before[j], c)
			}
		}
	}
	if ms.refreshesSkipped == skipped {
		t.Fatal("no scheduled refresh was skipped: the check above never saw one")
	}
	if len(sinceSolve) == 0 {
		t.Fatal("the run ended on a re-solve: nothing placed since")
	}
	for id, vec := range sinceSolve {
		got, _ := ms.space.At(id)
		if want := placedAgainstBasis(t, ms, vec); !sameCoord(got, want) {
			t.Errorf("state %d sits at %v, Place against the basis gives %v", id, got, want)
		}
	}
}

func TestBasisResolvesOnlyForUncoveredStates(t *testing.T) {
	ms := newBasisStage(t, 5)
	rng := rand.New(rand.NewSource(6))
	grow(t, ms, rng, 2*ms.cfg.LandmarkThreshold)
	// Drain whatever the random growth left pending.
	for ms.uncovered || ms.createdSinceSMAC != 0 {
		feed(t, ms, covered(ms, rng))
	}

	// Covered states never force a re-solve, however many boundaries pass.
	solves, skips := ms.refreshes, ms.refreshesSkipped
	for i := 0; i < 4*ms.cfg.RefreshEvery; i++ {
		if _, solved := feed(t, ms, covered(ms, rng)); solved {
			t.Fatalf("covered state %d re-solved the embedding", i)
		}
	}
	if ms.refreshes != solves || ms.refreshesSkipped != skips+4 {
		t.Fatalf("after 4 boundaries of covered states: %d solves (+%d), %d skipped (+%d); want +0, +4",
			ms.refreshes, ms.refreshes-solves, ms.refreshesSkipped, ms.refreshesSkipped-skips)
	}

	// One uncovered state re-solves at the next boundary — not before.
	if _, solved := feed(t, ms, farAway(rng)); solved || !ms.uncovered {
		t.Fatalf("uncovered state: solved %v, uncovered flag %v; want false, true", solved, ms.uncovered)
	}
	for ms.createdSinceSMAC != 0 {
		_, solved := feed(t, ms, covered(ms, rng))
		if atBoundary := ms.createdSinceSMAC == 0; solved != atBoundary {
			t.Fatalf("re-solve %v with %d states since the boundary", solved, ms.createdSinceSMAC)
		}
	}
	if ms.refreshes != solves+1 || ms.uncovered {
		t.Fatalf("after the boundary: %d solves (want %d), uncovered %v", ms.refreshes, solves+1, ms.uncovered)
	}
	// The far state is a state the new solve saw: covered, not pending.
	solves = ms.refreshes
	for i := 0; i < ms.cfg.RefreshEvery; i++ {
		feed(t, ms, covered(ms, rng))
	}
	if ms.refreshes != solves {
		t.Fatal("the boundary after a re-solve solved again with nothing uncovered")
	}
}

// learnedLane runs a lane over scattered scripted loads until its map is
// well past the landmark threshold and returns it with its template.
func learnedLane(t *testing.T, seed int64) (*Runtime, *statespace.Template) {
	t.Helper()
	cfg := baseConfig()
	cfg.LandmarkThreshold = 16
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	var steps []envStep
	for i := 0; i < 60; i++ {
		steps = append(steps, active(20+300*rng.Float64(), 20+300*rng.Float64(), i%7 == 0))
	}
	r, _ := newTestRuntime(t, cfg, &fakeEnv{script: steps})
	for i := range steps {
		if _, err := r.Period(); err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
	}
	if r.lane.ms.landmarks == nil {
		t.Fatal("learning run established no landmark basis")
	}
	return r, r.ExportTemplate("web-app")
}

func TestReplacingOrGrowingTheMapDropsTheBasis(t *testing.T) {
	donor, tpl := learnedLane(t, 7)

	// A merge that adds nothing keeps the basis; one that adds states
	// drops it, and the next boundary solves afresh.
	ms := donor.lane.ms
	if stats, err := donor.MergeTemplate(tpl); err != nil || stats.Added != 0 {
		t.Fatalf("self-merge: %+v, %v", stats, err)
	}
	if ms.landmarks == nil {
		t.Fatal("a merge that added no state dropped the basis")
	}
	_, other := learnedLane(t, 8)
	ms.uncovered = false // nothing pending: only the merge can cause the solve below
	solves := ms.refreshes
	stats, err := donor.MergeTemplate(other)
	if err != nil || stats.Added < ms.cfg.RefreshEvery {
		t.Fatalf("merge of a different map: %+v, %v", stats, err)
	}
	if ms.refreshes != solves+1 || ms.landmarks == nil {
		t.Fatalf("adding merge: %d solves (want %d), landmarks %v; want a fresh solve over the merged map",
			ms.refreshes, solves+1, ms.landmarks)
	}
	for _, l := range ms.landmarks {
		if l >= ms.space.Len() {
			t.Fatalf("landmark %d outside the %d-state map", l, ms.space.Len())
		}
	}

	// Import and checkpoint restore replace the space under the stage. A
	// period-0 merge can have built a basis by then; it must not survive.
	for name, adopt := range map[string]func(*Runtime) error{
		"import":  func(r *Runtime) error { return r.ImportTemplate(tpl) },
		"restore": func(r *Runtime) error { return r.RestoreCheckpoint(donor.Checkpoint()) },
	} {
		// Loads no learned state is near: each period creates a state.
		var fresh []envStep
		for i := 0; i < donor.lane.cfg.RefreshEvery; i++ {
			fresh = append(fresh, active(399, 1+20*float64(i), false))
		}
		r, _ := newTestRuntime(t, donor.lane.cfg, &fakeEnv{script: fresh})
		if _, err := r.MergeTemplate(other); err != nil {
			t.Fatal(err)
		}
		if r.lane.ms.landmarks == nil {
			t.Fatalf("%s: the period-0 merge built no basis to drop", name)
		}
		if err := adopt(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.lane.ms.landmarks != nil || r.lane.ms.uncovered {
			t.Fatalf("%s kept the basis of the map it replaced", name)
		}
		solves := r.Report().Refreshes
		for i := range fresh {
			if ev, err := r.Period(); err != nil || !ev.NewState {
				t.Fatalf("%s: period %d: new state %v, %v", name, i, ev.NewState, err)
			}
		}
		if got := r.Report().Refreshes; got != solves+1 || r.lane.ms.landmarks == nil {
			t.Fatalf("%s: %d → %d solves over one refresh boundary, landmarks %v; want one fresh solve",
				name, solves, got, r.lane.ms.landmarks)
		}
	}
}

func TestBasisIsDeterministic(t *testing.T) {
	run := func() (*mapStage, []mds.Coord) {
		ms := newBasisStage(t, 9)
		rng := rand.New(rand.NewSource(10))
		grow(t, ms, rng, 3*ms.cfg.LandmarkThreshold)
		for i := 0; i < 40; i++ {
			switch i % 10 {
			case 3:
				feed(t, ms, farAway(rng))
			default:
				feed(t, ms, covered(ms, rng))
			}
		}
		return ms, ms.space.Coords()
	}
	a, ac := run()
	b, bc := run()
	if a.refreshes != b.refreshes || a.refreshesSkipped != b.refreshesSkipped ||
		a.coverRadius != b.coverRadius || len(a.landmarks) != len(b.landmarks) {
		t.Fatalf("same seed, different basis: %d/%d solves, %d/%d skipped, radius %v/%v",
			a.refreshes, b.refreshes, a.refreshesSkipped, b.refreshesSkipped, a.coverRadius, b.coverRadius)
	}
	if a.refreshesSkipped == 0 || a.refreshes < 3 {
		t.Fatalf("%d solves, %d skipped: the run exercised one regime only", a.refreshes, a.refreshesSkipped)
	}
	for i := range a.landmarks {
		if a.landmarks[i] != b.landmarks[i] {
			t.Fatalf("landmark %d: state %d vs %d", i, a.landmarks[i], b.landmarks[i])
		}
	}
	for i := range ac {
		if !sameCoord(ac[i], bc[i]) {
			t.Fatalf("state %d: %v vs %v", i, ac[i], bc[i])
		}
	}
}

// scaleFreeStress1 is Stress1 after the uniform rescaling of x that
// minimizes it. The live map's scale drifts from the dissimilarities'
// (every re-solve is Procrustes-aligned, with scale, onto the layout
// before it), and stress-1 is not scale invariant; this compares shapes.
func scaleFreeStress1(delta *mds.Matrix, x []mds.Coord) float64 {
	var num, den float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			d := x[i].Dist(x[j])
			num += delta.At(i, j) * d
			den += d * d
		}
	}
	scaled := make([]mds.Coord, len(x))
	for i, p := range x {
		scaled[i] = p.Scale(num / den)
	}
	return mds.Stress1(delta, scaled)
}

func TestRetainedBasisStressAgainstFreshAndExact(t *testing.T) {
	// 200 states, 32 landmarks: the first 100 scatter over three clusters
	// (most boundaries find an uncovered state and re-solve), the second
	// 100 arrive next to states already known — a map that keeps filling
	// in, which is where the basis is retained. The map it leaves behind
	// is compared with a fresh landmark solve over the same vectors, and
	// both with exact SMACOF.
	const n, k = 200, 32
	cfg := baseConfig()
	cfg.LandmarkThreshold = k
	cfg.DedupEpsilon = -1
	cfg.applyDefaults()
	ms, err := newMapStage(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	centers := [][]float64{randomVector(rng), randomVector(rng), randomVector(rng)}
	for i := 0; i < n; i++ {
		near, spread := centers[rng.Intn(len(centers))], 0.08
		if i >= n/2 {
			_, near = ms.space.At(rng.Intn(ms.space.Len()))
			spread = 0.01
		}
		v := append([]float64(nil), near...)
		for d := range v {
			v[d] += rng.NormFloat64() * spread
		}
		feed(t, ms, v)
	}
	if ms.refreshesSkipped < 6 {
		t.Fatalf("%d refreshes skipped: the map under test is all but a fresh solve", ms.refreshesSkipped)
	}

	vectors := ms.space.Vectors()
	delta, err := mds.DistanceMatrix(vectors)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mds.LandmarkMDSVectors(vectors, k, mds.DefaultOptions(rand.New(rand.NewSource(13))))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mds.SMACOF(delta, mds.DefaultOptions(rand.New(rand.NewSource(13))))
	if err != nil {
		t.Fatal(err)
	}
	retainedS := scaleFreeStress1(delta, ms.space.Coords())
	freshS := scaleFreeStress1(delta, fresh.Config)
	exactS := scaleFreeStress1(delta, exact.Config)
	t.Logf("n=%d k=%d: stress-1 retained basis %.4f (%d solves, %d skipped), fresh landmark %.4f, exact SMACOF %.4f",
		n, k, retainedS, ms.refreshes, ms.refreshesSkipped, freshS, exactS)
	if retainedS > 1.10*freshS {
		t.Errorf("retained-basis stress %.4f is more than 10%% above a fresh landmark solve's %.4f", retainedS, freshS)
	}
	if retainedS < exactS || freshS < exactS {
		t.Errorf("a landmark map (retained %.4f, fresh %.4f) beat exact SMACOF (%.4f)", retainedS, freshS, exactS)
	}
}
