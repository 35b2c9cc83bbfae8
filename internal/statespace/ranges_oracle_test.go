package statespace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mds"
	"repro/internal/stats"
)

// The computations the Space's caches replaced, kept as references: every
// cached answer must equal these bit for bit after any sequence of
// mutators. They read s.states and the policy only — no cache, no grid.

func refCoordinateRangeMedian(s *Space) float64 {
	if len(s.states) < 2 {
		return 0
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, st := range s.states {
		minX = math.Min(minX, st.Coord.X)
		maxX = math.Max(maxX, st.Coord.X)
		minY = math.Min(minY, st.Coord.Y)
		maxY = math.Max(maxY, st.Coord.Y)
	}
	m, err := stats.Median([]float64{maxX - minX, maxY - minY})
	if err != nil {
		return 0
	}
	return m
}

func verifiedSafe(st *State) bool { return st.Label == Safe && !st.Unverified }

// refViolationRanges visits violation-states in the order they were
// labelled, which the test tracks itself.
func refViolationRanges(s *Space, labelled []int) []Disc {
	if len(labelled) == 0 {
		return nil
	}
	c := refCoordinateRangeMedian(s)
	policy := s.rangePolicy
	if policy == nil {
		policy = stats.RayleighWeight
	}
	var out []Disc
	for _, id := range labelled {
		v := s.states[id]
		d, _, ok := bruteNearest(s.states, v.Coord, verifiedSafe)
		if !ok {
			d = c
		}
		out = append(out, Disc{Center: v.Coord, Radius: policy(d, c), StateID: id})
	}
	return out
}

func refInViolationRange(discs []Disc, p mds.Coord) (Disc, bool) {
	for _, d := range discs {
		if d.Center.Dist(p) <= d.Radius {
			return d, true
		}
	}
	return Disc{}, false
}

func sameDisc(a, b Disc) bool {
	return a.StateID == b.StateID &&
		math.Float64bits(a.Radius) == math.Float64bits(b.Radius) &&
		math.Float64bits(a.Center.X) == math.Float64bits(b.Center.X) &&
		math.Float64bits(a.Center.Y) == math.Float64bits(b.Center.Y)
}

// checkAgainstReference compares every cached query with its reference.
func checkAgainstReference(t *testing.T, s *Space, labelled []int, rng *rand.Rand, step int, op string) {
	t.Helper()
	if got, want := s.CoordinateRangeMedian(), refCoordinateRangeMedian(s); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d (%s): CoordinateRangeMedian %v, reference %v", step, op, got, want)
	}
	want := refViolationRanges(s, labelled)
	got := s.ViolationRanges()
	if len(got) != len(want) || s.ViolationCount() != len(want) || s.HasViolations() != (len(want) > 0) {
		t.Fatalf("step %d (%s): %d discs (count %d), reference %d", step, op, len(got), s.ViolationCount(), len(want))
	}
	for i := range want {
		if !sameDisc(got[i], want[i]) {
			t.Fatalf("step %d (%s): disc %d is %+v, reference %+v", step, op, i, got[i], want[i])
		}
		if ids := s.ViolationIDs(); ids[i] != want[i].StateID {
			t.Fatalf("step %d (%s): ViolationIDs %v, labelled %v", step, op, ids, labelled)
		}
	}
	unverified := 0
	for _, st := range s.states {
		if st.Unverified {
			unverified++
		}
	}
	if s.UnverifiedCount() != unverified {
		t.Fatalf("step %d (%s): UnverifiedCount %d, %d states carry the flag", step, op, s.UnverifiedCount(), unverified)
	}
	for q := 0; q < 6; q++ {
		p := mds.Coord{X: rng.Float64()*16 - 2, Y: rng.Float64()*16 - 2}
		if q < 3 && len(s.states) > 0 {
			p = s.states[rng.Intn(len(s.states))].Coord // on a state: radius-0 and boundary hits
		}
		gd, gin := s.InViolationRange(p)
		wd, win := refInViolationRange(want, p)
		if gin != win || !sameDisc(gd, wd) {
			t.Fatalf("step %d (%s): InViolationRange(%v) = %+v, %v; reference %+v, %v", step, op, p, gd, gin, wd, win)
		}
	}
}

func TestCachedRangesMatchReferenceUnderRandomMutation(t *testing.T) {
	policies := []RangePolicy{
		nil,
		func(d, c float64) float64 { return 0.4 * c },
		func(d, c float64) float64 { return 0.5 * d },
	}
	// queryEvery > 1 lets mutations pile up between queries, so a refresh
	// has to repair more than one step's worth; lattice coordinates make
	// coincident states and equidistant anchors the common case; stale
	// creates every state unverified, as a silent QoS signal does, so that
	// verified safe-states are few and at times none.
	for _, tc := range []struct {
		seed       int64
		queryEvery int
		lattice    bool
		stale      bool
	}{{1, 1, false, false}, {2, 1, true, false}, {3, 5, false, false}, {4, 7, true, false}, {5, 1, true, true}, {6, 3, false, true}} {
		rng := rand.New(rand.NewSource(tc.seed))
		coord := func(span float64) mds.Coord {
			if tc.lattice {
				return mds.Coord{X: float64(rng.Intn(int(span))), Y: float64(rng.Intn(int(span)))}
			}
			return mds.Coord{X: rng.Float64() * span, Y: rng.Float64() * span}
		}
		s := NewSpace()
		var labelled []int
		isViolation := map[int]bool{}
		anchorRelabelled, noSafe, kept := 0, 0, 0
		for step := 0; step < 600; step++ {
			n := len(s.states)
			wasCurrent := s.nearOK
			moved := false
			op := "Add"
			switch k := rng.Intn(20); {
			case n < 3 || k < 7:
				span := 6.0
				if rng.Intn(5) == 0 {
					span = 12 // beyond the box the grid and the bounds were built over
				}
				id := s.Add(coord(span), nil, step)
				if tc.stale {
					op = "Add+MarkUnverified"
					if err := s.MarkUnverified(id); err != nil {
						t.Fatal(err)
					}
				}
			case k < 11:
				op = "MarkViolation"
				id := rng.Intn(n)
				for _, r := range s.ranges {
					if s.nearOK && int(r.anchor) == id && verifiedSafe(&s.states[id]) {
						anchorRelabelled++
						break
					}
				}
				if err := s.MarkViolation(id); err != nil {
					t.Fatal(err)
				}
				if !isViolation[id] {
					isViolation[id] = true
					labelled = append(labelled, id)
				}
			case k < 14:
				op = "MarkUnverified"
				if err := s.MarkUnverified(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			case k < 16:
				op = "ClearUnverified"
				if err := s.ClearUnverified(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			case k < 17:
				op, moved = "SetCoord", true
				if err := s.SetCoord(rng.Intn(n), coord(8)); err != nil {
					t.Fatal(err)
				}
			case k < 18:
				op, moved = "SetCoords", true
				all := make([]mds.Coord, n)
				for i := range all {
					all[i] = coord(8)
				}
				if err := s.SetCoords(all); err != nil {
					t.Fatal(err)
				}
			default:
				op = "SetRangePolicy"
				s.SetRangePolicy(policies[rng.Intn(len(policies))])
			}
			// Only a moved coordinate may drop the distances; every other
			// mutator has to keep them current itself.
			if wasCurrent && !moved {
				if !s.nearOK {
					t.Fatalf("seed %d step %d: %s dropped the cached distances", tc.seed, step, op)
				}
				kept++
			}
			if _, _, ok := bruteNearest(s.states, mds.Coord{}, verifiedSafe); !ok && len(labelled) > 0 {
				noSafe++
			}
			if step%tc.queryEvery == 0 {
				checkAgainstReference(t, s, labelled, rng, step, op)
			}
		}
		t.Logf("seed %d: %d states, %d violation-states, %d anchors relabelled, %d steps with no verified safe-state, %d mutations absorbed by a current cache",
			tc.seed, len(s.states), len(labelled), anchorRelabelled, noSafe, kept)
		if kept < 100 || anchorRelabelled == 0 || (tc.stale && noSafe == 0) {
			t.Fatalf("seed %d: the sequence missed a case it exists to cover", tc.seed)
		}
	}
}

func TestImportedSpaceRangesMatchReference(t *testing.T) {
	// Import goes through the mutators the caches hook: an imported space
	// answers like the reference, its unverified template states excluded
	// as anchors, and keeps doing so while it is mutated after its first
	// query filled the caches.
	rng := rand.New(rand.NewSource(21))
	src := NewSpace()
	var labelled []int
	for i := 0; i < 120; i++ {
		id := src.Add(mds.Coord{X: rng.Float64() * 10, Y: rng.Float64() * 10}, []float64{rng.Float64(), rng.Float64()}, i)
		switch i % 4 {
		case 0:
			if err := src.MarkViolation(id); err != nil {
				t.Fatal(err)
			}
			labelled = append(labelled, id)
		case 1:
			if err := src.MarkUnverified(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := Import(Export(src, "app", sampleRanges(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.UnverifiedCount() != 30 || s.ViolationCount() != 30 {
		t.Fatalf("imported %d unverified, %d violation-states; want 30, 30", s.UnverifiedCount(), s.ViolationCount())
	}
	// An unverified state sits nearer to some violation-state than any
	// verified one does, or the flag's exclusion goes untested here.
	excluded := false
	for _, id := range labelled {
		v, _, _ := bruteNearest(s.states, s.states[id].Coord, verifiedSafe)
		a, _, _ := bruteNearest(s.states, s.states[id].Coord, func(st *State) bool { return st.Label == Safe })
		excluded = excluded || a < v
	}
	if !excluded {
		t.Fatal("fixture: no violation-state has an unverified state as its nearest safe-labelled one")
	}
	checkAgainstReference(t, s, labelled, rng, 0, "Import")
	for step := 1; step <= 40; step++ {
		if err := s.ClearUnverified(rng.Intn(s.Len())); err != nil {
			t.Fatal(err)
		}
		s.Add(mds.Coord{X: rng.Float64() * 12, Y: rng.Float64() * 12}, nil, step)
		checkAgainstReference(t, s, labelled, rng, step, "ClearUnverified+Add")
	}
}

func TestDiscContainsMatchesPlainForm(t *testing.T) {
	plain := func(d Disc, p mds.Coord) bool { return d.Center.Dist(p) <= d.Radius }
	nan, inf := math.NaN(), math.Inf(1)
	special := []float64{0, 3, 4, 5, math.Nextafter(5, 0), math.Nextafter(5, 6), -1, 1e-320, 1e308, nan, inf, -inf}
	n := 0
	for _, cx := range special {
		for _, px := range special {
			for _, py := range special {
				for _, r := range special {
					// Centre (cx, 0), point (px, py): (0,0)/(3,4)/5 is the
					// boundary, r = 0 with px = cx, py = 0 the zero radius.
					d, p := Disc{Center: mds.Coord{X: cx}, Radius: r}, mds.Coord{X: px, Y: py}
					if got, want := d.Contains(p), plain(d, p); got != want {
						t.Fatalf("%+v contains %v: %v, plain form %v", d, p, got, want)
					}
					n++
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		d := Disc{Center: mds.Coord{X: rng.NormFloat64(), Y: rng.NormFloat64()}, Radius: rng.Float64() * 2}
		p := mds.Coord{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		if i%4 == 0 {
			// On the boundary, to the last bit either side.
			r := d.Center.Dist(p)
			d.Radius = []float64{r, math.Nextafter(r, 0), math.Nextafter(r, inf)}[i/4%3]
		}
		if got, want := d.Contains(p), plain(d, p); got != want {
			t.Fatalf("%+v contains %v: %v, plain form %v", d, p, got, want)
		}
	}
	if !(Disc{Center: mds.Coord{X: 1, Y: 2}}).Contains(mds.Coord{X: 1, Y: 2}) {
		t.Fatal("a zero-radius disc does not contain its own centre")
	}
	if (Disc{Center: mds.Coord{X: 0, Y: 0}, Radius: 5}).Contains(mds.Coord{X: 3, Y: 4}) != true || n == 0 {
		t.Fatal("the 3-4-5 boundary point is outside")
	}
}
