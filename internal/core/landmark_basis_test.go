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

// placedAgainst is where mds.Place puts vec against the given landmarks'
// current coordinates and the distances to their vectors.
func placedAgainst(t *testing.T, ms *mapStage, vec []float64, landmarks []int) mds.Coord {
	t.Helper()
	var coords []mds.Coord
	var delta []float64
	for _, l := range landmarks {
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

// standingAt is the basis as state id found it on arrival: landmarks are
// promoted in arrival order, so it is every landmark with a smaller id.
// Valid while no solve has redrawn the set since.
func standingAt(ms *mapStage, id int) []int {
	var out []int
	for _, l := range ms.landmarks {
		if l < id {
			out = append(out, l)
		}
	}
	return out
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
	// Above it the basis is the solved landmarks plus the promoted ones:
	// never fewer than a solve leaves, never more than a doubling plus the
	// promotions that fit before the next scheduled refresh.
	k := ms.cfg.LandmarkThreshold
	for ms.space.Len() < 6*k {
		feed(t, ms, randomVector(rng))
		if ms.landmarks == nil {
			continue
		}
		if n := len(ms.landmarks); n < k || n >= 2*k+ms.cfg.RefreshEvery {
			t.Fatalf("%d states: %d landmarks, want [%d, %d)", ms.space.Len(), n, k, 2*k+ms.cfg.RefreshEvery)
		}
		if ms.coverRadius <= 0 {
			t.Fatalf("covering radius %v, want positive", ms.coverRadius)
		}
	}
	if ms.landmarks == nil {
		t.Fatal("no basis above the threshold")
	}
}

func TestLandmarkRegimePlacesAgainstBasis(t *testing.T) {
	// Every state created since the last solve sits exactly where Place
	// puts it against the landmarks that stood when it arrived; it joined
	// them if and only if none was within the covering radius; and a period
	// that does not re-solve — a skipped refresh included — moves no
	// coordinate. (States from before the solve are not re-derivable: the
	// solve's Procrustes alignment carries a scale.)
	ms := newBasisStage(t, 3)
	rng := rand.New(rand.NewSource(4))
	grow(t, ms, rng, 2*ms.cfg.LandmarkThreshold)
	if ms.landmarks == nil {
		t.Fatal("no basis to test against")
	}
	sinceSolve := map[int][]float64{}
	skipped, promoted := ms.refreshesSkipped, 0
	for i := 0; i < 80; i++ {
		vec := randomVector(rng)
		if i%3 != 0 {
			vec = covered(ms, rng)
		}
		before, standing := ms.space.Coords(), append([]int(nil), ms.landmarks...)
		nearest := math.Inf(1)
		for _, l := range standing {
			_, v := ms.space.At(l)
			nearest = math.Min(nearest, mds.Euclidean(vec, v))
		}
		uncovered := nearest > ms.coverRadius
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
		want := standing
		if uncovered {
			want = append(want, id)
			promoted++
		}
		if len(ms.landmarks) != len(want) || ms.landmarks[len(want)-1] != want[len(want)-1] {
			t.Fatalf("period %d (uncovered %v): basis went from %v to %v", i, uncovered, standing, ms.landmarks)
		}
	}
	if ms.refreshesSkipped == skipped || promoted == 0 {
		t.Fatalf("%d refreshes skipped, %d promotions: the checks above never saw one",
			ms.refreshesSkipped-skipped, promoted)
	}
	if len(sinceSolve) == 0 {
		t.Fatal("the run ended on a re-solve: nothing placed since")
	}
	for id, vec := range sinceSolve {
		got, _ := ms.space.At(id)
		if want := placedAgainst(t, ms, vec, standingAt(ms, id)); !sameCoord(got, want) {
			t.Errorf("state %d sits at %v, Place against the basis it found gives %v", id, got, want)
		}
	}
}

func TestBasisResolvesOnlyForUncoveredStates(t *testing.T) {
	ms := newBasisStage(t, 5)
	rng := rand.New(rand.NewSource(6))
	k := ms.cfg.LandmarkThreshold
	grow(t, ms, rng, 2*k)
	// A solve leaves exactly k landmarks and a full interval to the next
	// boundary: the counts below start from there.
	for solved := false; !solved; {
		_, solved = feed(t, ms, randomVector(rng))
	}

	// Covered states neither join the basis nor force a re-solve, however
	// many boundaries pass.
	solves, skips := ms.refreshes, ms.refreshesSkipped
	for i := 0; i < 4*ms.cfg.RefreshEvery; i++ {
		if _, solved := feed(t, ms, covered(ms, rng)); solved {
			t.Fatalf("covered state %d re-solved the embedding", i)
		}
	}
	if ms.refreshes != solves || ms.refreshesSkipped != skips+4 || len(ms.landmarks) != k {
		t.Fatalf("after 4 boundaries of covered states: %d solves (+%d), %d skipped (+%d), %d landmarks; want +0, +4, %d",
			ms.refreshes, ms.refreshes-solves, ms.refreshesSkipped, ms.refreshesSkipped-skips, len(ms.landmarks), k)
	}

	// An uncovered state is promoted on arrival and covers its own
	// neighbourhood from then on; the boundary that follows has nothing to
	// solve.
	far := farAway(rng)
	id, solved := feed(t, ms, far)
	if solved || len(ms.landmarks) != k+1 || ms.landmarks[k] != id {
		t.Fatalf("uncovered state %d: solved %v, basis %v; want it appended", id, solved, ms.landmarks)
	}
	near := append([]float64(nil), far...)
	near[0] += ms.coverRadius / 2
	if feed(t, ms, near); len(ms.landmarks) != k+1 {
		t.Fatalf("a state within the covering radius of a promoted landmark was promoted too: %v", ms.landmarks)
	}
	for ms.createdSinceSMAC != 0 {
		if _, solved := feed(t, ms, covered(ms, rng)); solved {
			t.Fatal("one promotion re-solved the embedding")
		}
	}

	// The basis re-solves once it has doubled — at the next boundary, not
	// before — and is back to k landmarks.
	solves, waited := ms.refreshes, false
	for i := 0; ms.refreshes == solves; i++ {
		before := len(ms.landmarks)
		v := covered(ms, rng)
		if before < 2*k {
			v = farAway(rng)
			v[i%basisDim] += 10 * float64(i+1) // far from the other far ones too
		}
		_, solved := feed(t, ms, v)
		switch {
		case solved && before+1 < 2*k:
			t.Fatalf("re-solved at %d landmarks, before the basis doubled", before)
		case !solved && len(ms.landmarks) >= 2*k && ms.createdSinceSMAC == 0:
			t.Fatalf("a boundary passed with %d landmarks and nothing re-solved", len(ms.landmarks))
		case !solved && len(ms.landmarks) >= 2*k:
			waited = true
		}
	}
	if len(ms.landmarks) != k || !waited {
		t.Fatalf("after the re-solve: %d landmarks (want %d); doubled basis waited for its boundary: %v",
			len(ms.landmarks), k, waited)
	}
}

// learnedLane runs a lane over scattered scripted loads until its map is
// well past the landmark threshold and returns it with its template.
func learnedLane(t *testing.T, seed int64) (*Runtime, *statespace.Template) {
	t.Helper()
	r := scatteredLane(t, 16, 60, seed)
	if r.lane.ms.landmarks == nil {
		t.Fatal("learning run established no landmark basis")
	}
	return r, r.ExportTemplate("web-app")
}

func TestReplacingOrGrowingTheMapDropsTheBasis(t *testing.T) {
	donor, tpl := learnedLane(t, 7)

	// Growing the map by a merge keeps a standing basis: adopted states are
	// created like organic ones — placed against the landmarks they find,
	// promoted when uncovered — and no known state moves.
	ms := donor.lane.ms
	if stats, err := donor.MergeTemplate(tpl); err != nil || stats.Added != 0 {
		t.Fatalf("self-merge: %+v, %v", stats, err)
	}
	_, other := learnedLane(t, 8)
	added, promoted := 0, 0
	for lo := 0; lo < len(other.States); lo += ms.cfg.RefreshEvery {
		patch := statespace.CloneTemplate(other)
		patch.States = patch.States[lo:min(lo+ms.cfg.RefreshEvery, len(patch.States))]
		solves, known := ms.refreshes, ms.space.Coords()
		basis := append([]int(nil), ms.landmarks...)
		stats, err := donor.MergeTemplate(patch)
		if err != nil {
			t.Fatalf("merging states %d…: %v", lo, err)
		}
		added += stats.Added
		if ms.refreshes != solves {
			// The doubling re-solve, reached by promotion like any other.
			if len(basis)+stats.Added < 2*ms.cfg.LandmarkThreshold || len(ms.landmarks) != ms.cfg.LandmarkThreshold {
				t.Fatalf("merging states %d… re-solved a basis of %d + %d adopted into %d landmarks",
					lo, len(basis), stats.Added, len(ms.landmarks))
			}
			continue
		}
		promoted += len(ms.landmarks) - len(basis)
		for i, l := range basis {
			if ms.landmarks[i] != l {
				t.Fatalf("merging states %d… redrew the basis: %v → %v", lo, basis, ms.landmarks)
			}
		}
		for id, c := range ms.space.Coords() {
			if id < len(known) {
				if !sameCoord(c, known[id]) {
					t.Fatalf("merging states %d… moved known state %d from %v to %v", lo, id, known[id], c)
				}
				continue
			}
			_, vec := ms.space.At(id)
			if want := placedAgainst(t, ms, vec, standingAt(ms, id)); !sameCoord(c, want) {
				t.Fatalf("adopted state %d sits at %v, Place against the basis it found gives %v", id, c, want)
			}
		}
	}
	if added < ms.cfg.RefreshEvery || promoted == 0 {
		t.Fatalf("%d states adopted, %d promoted: the checks above saw too little", added, promoted)
	}

	// Import and checkpoint restore replace the space under the stage. A
	// period-0 merge — into no basis, so at the fleet's coordinates, which
	// it adopts at its end — can have built one by then; it must not
	// survive.
	for name, adopt := range map[string]func(*Runtime) error{
		"import":  func(r *Runtime) error { return r.ImportTemplate(tpl) },
		"restore": func(r *Runtime) error { return r.Lane().RestoreCheckpoint(donor.Lane().Checkpoint()) },
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
		if r.lane.ms.landmarks != nil || r.Report().Landmarks != 0 {
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
	if a.refreshesSkipped == 0 || a.refreshes < 3 || len(a.landmarks) <= a.cfg.LandmarkThreshold {
		t.Fatalf("%d solves, %d skipped, %d landmarks: the run did not solve, skip and promote",
			a.refreshes, a.refreshesSkipped, len(a.landmarks))
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
	// 200 states, 32 landmarks, two arrival orders. The map the grown basis
	// leaves behind is compared with a fresh landmark solve over the same
	// vectors, and both with exact SMACOF.
	const n, k = 200, 32
	scatter := func(rng *rand.Rand, near []float64, spread float64) []float64 {
		v := append([]float64(nil), near...)
		for d := range v {
			v[d] += rng.NormFloat64() * spread
		}
		return v
	}
	fixtures := map[string]func(rng *rand.Rand, ms *mapStage, centers [][]float64, i int) []float64{
		// The first half scatters over three clusters, the second arrives
		// next to states already known: a map that keeps filling in.
		"fill-in": func(rng *rand.Rand, ms *mapStage, centers [][]float64, i int) []float64 {
			near, spread := centers[rng.Intn(len(centers))], 0.08
			if i >= n/2 {
				_, near = ms.space.At(rng.Intn(ms.space.Len()))
				spread = 0.01
			}
			return scatter(rng, near, spread)
		},
		// The second half scatters over the same clusters moved to a region
		// disjoint from the first: every early arrival there is uncovered.
		"drift": func(rng *rand.Rand, ms *mapStage, centers [][]float64, i int) []float64 {
			v := scatter(rng, centers[rng.Intn(len(centers))], 0.08)
			if i >= n/2 {
				for d := range v {
					v[d] += 2
				}
			}
			return v
		},
	}
	for name, next := range fixtures {
		t.Run(name, func(t *testing.T) {
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
			promoted := 0
			for i := 0; i < n; i++ {
				before := len(ms.landmarks)
				if _, solved := feed(t, ms, next(rng, ms, centers, i)); !solved && len(ms.landmarks) > before {
					promoted++
				}
			}
			if ms.refreshesSkipped < 6 || promoted == 0 {
				t.Fatalf("%d refreshes skipped, %d promotions: the map under test is all but a fresh solve",
					ms.refreshesSkipped, promoted)
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
			grownS := scaleFreeStress1(delta, ms.space.Coords())
			freshS := scaleFreeStress1(delta, fresh.Config)
			exactS := scaleFreeStress1(delta, exact.Config)
			t.Logf("n=%d k=%d: stress-1 grown basis %.4f (%d solves, %d skipped, %d promotions, %d landmarks), fresh landmark %.4f, exact SMACOF %.4f",
				n, k, grownS, ms.refreshes, ms.refreshesSkipped, promoted, len(ms.landmarks), freshS, exactS)
			if grownS > 1.10*freshS {
				t.Errorf("grown-basis stress %.4f is more than 10%% above a fresh landmark solve's %.4f", grownS, freshS)
			}
			if grownS < exactS || freshS < exactS {
				t.Errorf("a landmark map (grown %.4f, fresh %.4f) beat exact SMACOF (%.4f)", grownS, freshS, exactS)
			}
		})
	}
}
