package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mds"
	"repro/internal/statespace"
)

// Tests for a bulk fleet merge into a map with no landmark basis
// (merge.go, adoptLayout): the fleet's solved layout is kept rather than
// re-solved, and every other merge keeps the rule it had before.

// scatteredLane runs a lane with landmark threshold k over n periods of
// scattered loads; below the threshold it holds no landmark basis.
func scatteredLane(t *testing.T, k, n int, seed int64) *Runtime {
	t.Helper()
	cfg := baseConfig()
	cfg.LandmarkThreshold = k
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	var steps []envStep
	for i := 0; i < n; i++ {
		steps = append(steps, active(20+300*rng.Float64(), 20+300*rng.Float64(), i%7 == 0))
	}
	r, _ := newTestRuntime(t, cfg, &fakeEnv{script: steps})
	for i := range steps {
		if _, err := r.Period(); err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
	}
	return r
}

// fleetMap is the template a fleet would serve the lane: the lane's own
// states, which the merge matches and aligns on, followed by extra states
// drawn from the unit measurement cube, all laid out by one landmark solve
// with k landmarks. A tenth of the extra states are violations.
func fleetMap(t *testing.T, ms *mapStage, extra, k int, seed int64) *statespace.Template {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vectors := ms.space.Vectors()
	for i := 0; i < extra; i++ {
		v := make([]float64, ms.schema.Dim())
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors = append(vectors, v)
	}
	res, err := mds.LandmarkMDSVectors(vectors, k, mds.DefaultOptions(rng))
	if err != nil {
		t.Fatal(err)
	}
	tpl := statespace.Export(statespace.NewSpace(), "web-app", ms.normalizer.Snapshot(), ms.schema)
	for i, v := range vectors {
		label := statespace.Safe
		if i%10 == 9 {
			label = statespace.Violation
		}
		tpl.States = append(tpl.States, statespace.TemplateState{
			X: res.Config[i].X, Y: res.Config[i].Y, Label: label.String(), Weight: 1, Vector: v,
		})
	}
	return tpl
}

// alignedFor is what statespace.AlignStates makes of tpl against the
// lane's live map, with the merge's alignment ε.
func alignedFor(t *testing.T, ms *mapStage, tpl *statespace.Template) []statespace.TemplateState {
	t.Helper()
	eps := ms.cfg.DedupEpsilon
	if eps <= 0 {
		eps = 0.05
	}
	base := statespace.Export(ms.space, tpl.SensitiveApp, ms.normalizer.Snapshot(), ms.schema)
	aligned, err := statespace.AlignStates(base, tpl, eps)
	if err != nil {
		t.Fatal(err)
	}
	return aligned
}

// mergeAsBefore folds tpl into ms by the rule every merge followed before
// a bulk merge adopted the fleet's layout: new states at the fleet's
// aligned coordinates, or created like organic ones while a basis stands,
// then the scheduled refresh. Labels move no coordinate and are left out.
func mergeAsBefore(t *testing.T, ms *mapStage, tpl *statespace.Template, period int) {
	t.Helper()
	for _, in := range alignedFor(t, ms, tpl) {
		if _, ok := ms.space.FirstWithin(in.Vector, ms.cfg.DedupEpsilon); ok {
			continue
		}
		if ms.landmarks != nil {
			if _, err := ms.createState(in.Vector, period); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ms.space.Add(mds.Coord{X: in.X, Y: in.Y}, in.Vector, period)
		ms.createdSinceSMAC++
	}
	if ms.createdSinceSMAC >= ms.cfg.RefreshEvery && ms.space.Len() >= 3 {
		if err := ms.refreshEmbedding(); err != nil {
			t.Fatal(err)
		}
		ms.createdSinceSMAC = 0
	}
}

// stress1 is the full map's Kruskal stress-1 against its vectors.
func stress1(t *testing.T, vectors [][]float64, coords []mds.Coord) float64 {
	t.Helper()
	delta, err := mds.DistanceMatrix(vectors)
	if err != nil {
		t.Fatal(err)
	}
	return mds.Stress1(delta, coords)
}

func templateStress(t *testing.T, tpl *statespace.Template) float64 {
	t.Helper()
	var vectors [][]float64
	var coords []mds.Coord
	for _, st := range tpl.States {
		vectors = append(vectors, st.Vector)
		coords = append(coords, mds.Coord{X: st.X, Y: st.Y})
	}
	return stress1(t, vectors, coords)
}

func TestBulkMergeAdoptsTheFleetLayout(t *testing.T) {
	const k = 16
	r := scatteredLane(t, k, 12, 31)
	ms := r.lane.ms
	first := ms.space.Len()
	if ms.landmarks != nil || first >= k {
		t.Fatalf("host holds %d states and basis %v; want fewer than %d and none", first, ms.landmarks, k)
	}
	tpl := fleetMap(t, ms, 120, k, 32)
	aligned := alignedFor(t, ms, tpl)
	before := r.Report()

	stats, err := r.MergeTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != first || stats.Added != len(tpl.States)-first {
		t.Fatalf("merge %+v; want the %d local states matched and the rest added", stats, first)
	}

	// The added states sit at the fleet's aligned coordinates, and the
	// basis is picked from them.
	for id := first; id < ms.space.Len(); id++ {
		if c, _ := ms.space.At(id); !sameCoord(c, mds.Coord{X: aligned[id].X, Y: aligned[id].Y}) {
			t.Fatalf("added state %d sits at %v, AlignStates put it at (%v, %v)", id, c, aligned[id].X, aligned[id].Y)
		}
	}
	for _, l := range ms.landmarks {
		if l < first {
			t.Fatalf("landmark %d is a local state: basis %v", l, ms.landmarks)
		}
	}

	// The lane's own states are re-placed against the landmarks.
	for id := 0; id < first; id++ {
		c, vec := ms.space.At(id)
		if want := placedAgainst(t, ms, vec, ms.landmarks); !sameCoord(c, want) {
			t.Fatalf("local state %d sits at %v, Place against the landmarks gives %v", id, c, want)
		}
	}

	// The covering radius is the farthest any state sits from its nearest
	// landmark, over every state.
	var farthest float64
	for id := 0; id < ms.space.Len(); id++ {
		_, vec := ms.space.At(id)
		nearest := math.Inf(1)
		for _, l := range ms.landmarks {
			_, lv := ms.space.At(l)
			nearest = math.Min(nearest, mds.Euclidean(vec, lv))
		}
		if nearest > ms.coverRadius {
			t.Fatalf("state %d is %v from every landmark, beyond the covering radius %v", id, nearest, ms.coverRadius)
		}
		farthest = math.Max(farthest, nearest)
	}
	if farthest != ms.coverRadius {
		t.Fatalf("covering radius %v, but the farthest state is %v from its nearest landmark", ms.coverRadius, farthest)
	}

	// No solve ran; the stress is the adopted landmark sub-problem's.
	rep := r.Report()
	if rep.Refreshes != before.Refreshes || rep.Landmarks != k {
		t.Fatalf("after the merge: %d refreshes (was %d), %d landmarks; want no solve and %d",
			rep.Refreshes, before.Refreshes, rep.Landmarks, k)
	}
	var lmVectors [][]float64
	var lmCoords []mds.Coord
	for _, l := range ms.landmarks {
		c, v := ms.space.At(l)
		lmVectors, lmCoords = append(lmVectors, v), append(lmCoords, c)
	}
	if want := stress1(t, lmVectors, lmCoords); rep.LastStress != want {
		t.Fatalf("LastStress %v, the landmark sub-problem's stress-1 is %v", rep.LastStress, want)
	}

	// And the map is as good as the layout it adopted.
	got, own := stress1(t, ms.space.Vectors(), ms.space.Coords()), templateStress(t, tpl)
	t.Logf("%d + %d states: stress-1 after the merge %.4f, of the template's own layout %.4f",
		first, stats.Added, got, own)
	if got > 1.10*own {
		t.Errorf("stress-1 after the merge %.4f is more than 10%% above the template's own %.4f", got, own)
	}
}

func TestOtherMergesKeepTheirRule(t *testing.T) {
	// Each case merges one template into two identical lanes: through
	// MergeTemplate, and by the rule merges followed before adoption.
	// Coordinates and basis must agree bit for bit.
	const k = 16
	cases := []struct {
		name         string
		local, extra int
		adopts       bool
	}{
		{"one short of the threshold", 12, k - 1, false},
		{"at the threshold", 12, k, true},
		{"into a standing basis", 60, 120, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, twin := scatteredLane(t, k, c.local, 41), scatteredLane(t, k, c.local, 41)
			ms := r.lane.ms
			if standing := ms.landmarks != nil; standing != (c.local > k) {
				t.Fatalf("%d local states, basis standing %v", ms.space.Len(), standing)
			}
			tpl := fleetMap(t, ms, c.extra, k, 42)
			solves := ms.refreshes
			stats, err := r.MergeTemplate(tpl)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Added != c.extra {
				t.Fatalf("merge %+v; want %d added", stats, c.extra)
			}
			if c.adopts {
				if ms.refreshes != solves || len(ms.landmarks) != k {
					t.Fatalf("%d added: %d solves (+%d), %d landmarks; want the fleet layout adopted",
						stats.Added, ms.refreshes, ms.refreshes-solves, len(ms.landmarks))
				}
				return
			}
			mergeAsBefore(t, twin.lane.ms, tpl, twin.lane.period)
			want := twin.lane.ms
			if len(ms.landmarks) != len(want.landmarks) || ms.refreshes != want.refreshes || ms.coverRadius != want.coverRadius {
				t.Fatalf("basis %v (%d solves, radius %v), before adoption %v (%d solves, radius %v)",
					ms.landmarks, ms.refreshes, ms.coverRadius, want.landmarks, want.refreshes, want.coverRadius)
			}
			for i, l := range want.landmarks {
				if ms.landmarks[i] != l {
					t.Fatalf("basis %v, before adoption %v", ms.landmarks, want.landmarks)
				}
			}
			for id, got := range ms.space.Coords() {
				if w, _ := want.space.At(id); !sameCoord(got, w) {
					t.Fatalf("state %d at %v, before adoption %v", id, got, w)
				}
			}
		})
	}
}

func TestStitchedConsensusMergesBetterAdoptedThanResolved(t *testing.T) {
	// The registry's consensus is stitched, not solved: MergeTemplates
	// aligns each upload onto the consensus and never re-solves. Four
	// hosts solve 400 states each, every host sharing half its states with
	// the next; their consensus, merged into a host with no basis, is
	// still better kept than re-solved.
	const k, hosts, perHost = 128, 4, 400
	r := scatteredLane(t, k, 40, 51)
	ms := r.lane.ms
	rng := rand.New(rand.NewSource(52))
	pool := make([][]float64, hosts*perHost/2)
	for i := range pool {
		pool[i] = make([]float64, ms.schema.Dim())
		for d := range pool[i] {
			pool[i][d] = rng.Float64()
		}
	}
	var consensus *statespace.Template
	for h := 0; h < hosts; h++ {
		var vectors [][]float64
		for i := 0; i < perHost; i++ {
			vectors = append(vectors, pool[(h*perHost/2+i)%len(pool)])
		}
		res, err := mds.LandmarkMDSVectors(vectors, k, mds.DefaultOptions(rng))
		if err != nil {
			t.Fatal(err)
		}
		tpl := statespace.Export(statespace.NewSpace(), "web-app", ms.normalizer.Snapshot(), ms.schema)
		for i, v := range vectors {
			tpl.States = append(tpl.States, statespace.TemplateState{
				X: res.Config[i].X, Y: res.Config[i].Y, Label: statespace.Safe.String(), Weight: 1, Vector: v,
			})
		}
		if consensus == nil {
			consensus = tpl
			continue
		}
		if consensus, err = statespace.MergeTemplates(consensus, tpl, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	if len(consensus.States) != len(pool) {
		t.Fatalf("consensus holds %d states, want the pool's %d", len(consensus.States), len(pool))
	}

	// The re-solve a merge ran before adoption: a landmark solve over the
	// merged vectors, aligned onto the layout the merge left.
	twin := scatteredLane(t, k, 40, 51).lane.ms
	for _, in := range alignedFor(t, twin, consensus) {
		if _, ok := twin.space.FirstWithin(in.Vector, twin.cfg.DedupEpsilon); !ok {
			twin.space.Add(mds.Coord{X: in.X, Y: in.Y}, in.Vector, 0)
		}
	}
	res, err := mds.LandmarkMDSVectors(twin.space.Vectors(), k, mds.DefaultOptions(rand.New(rand.NewSource(53))))
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := mds.AlignTo(res.Config, twin.space.Coords())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := r.MergeTemplate(consensus); err != nil {
		t.Fatal(err)
	}
	if ms.refreshes != twin.refreshes || len(ms.landmarks) != k {
		t.Fatalf("the merge solved (%d → %d) or built no basis (%d landmarks)", twin.refreshes, ms.refreshes, len(ms.landmarks))
	}
	adopted := stress1(t, ms.space.Vectors(), ms.space.Coords())
	resolvedS := stress1(t, twin.space.Vectors(), resolved)
	t.Logf("%d consensus states into %d: stress-1 of the consensus layout %.4f, a fresh solve %.4f; merged: adopted %.4f, re-solved %.4f",
		len(consensus.States), ms.space.Len()-len(consensus.States), templateStress(t, consensus),
		stress1(t, twin.space.Vectors(), res.Config), adopted, resolvedS)
	if adopted > resolvedS {
		t.Errorf("adopting the stitched consensus left stress-1 %.4f, re-solving it %.4f", adopted, resolvedS)
	}
}

func TestAdoptedBasisStandsLikeASolvedOne(t *testing.T) {
	// A lane that adopts a fleet layout before its first period has never
	// solved; its basis still spares it the first solve an empty map runs
	// at four states, and a scheduled refresh is skipped as usual.
	const k = 16
	cfg := baseConfig()
	cfg.LandmarkThreshold = k
	var fresh []envStep
	for i := 0; i < cfg.RefreshEvery; i++ {
		fresh = append(fresh, active(399, 1+20*float64(i), false))
	}
	r, _ := newTestRuntime(t, cfg, &fakeEnv{script: fresh})
	if _, err := r.MergeTemplate(fleetMap(t, r.lane.ms, 40, k, 61)); err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		ev, err := r.Period()
		if err != nil || !ev.NewState {
			t.Fatalf("period %d: new state %v, %v", i, ev.NewState, err)
		}
		rep := r.Report()
		if i < len(fresh)-1 && rep.RefreshesSkipped != 0 {
			t.Fatalf("period %d: %d refreshes skipped before the first boundary", i, rep.RefreshesSkipped)
		}
		if rep.Refreshes != 0 || rep.Landmarks < k {
			t.Fatalf("period %d: %d solves, %d landmarks; want the adopted basis kept", i, rep.Refreshes, rep.Landmarks)
		}
	}
	if got := r.Report().RefreshesSkipped; got != 1 {
		t.Fatalf("%d refreshes skipped over one refresh boundary, want 1", got)
	}
}
