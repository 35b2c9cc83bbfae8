package statespace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mds"
)

// bruteNearest is the reference implementation the grid must match.
func bruteNearest(states []State, p mds.Coord, pred func(*State) bool) (float64, int, bool) {
	best := math.Inf(1)
	bestID := -1
	for i := range states {
		if !pred(&states[i]) {
			continue
		}
		d := p.Dist(states[i].Coord)
		if d < best {
			best = d
			bestID = states[i].ID
		}
	}
	if bestID < 0 {
		return 0, 0, false
	}
	return best, bestID, true
}

func TestGridMatchesBruteForce(t *testing.T) {
	// Queries interleaved with Adds: the grid built by the first query has
	// to answer for the states added since (its tail, some of them outside
	// the box it was built over), across the rebuild that a tail grown past
	// √n triggers and the one a SetCoords forces. Distances must match
	// brute force to the bit; between equidistant states the id is free.
	rng := rand.New(rand.NewSource(13))
	s := NewSpace()
	verified := func(st *State) bool { return st.Label == Safe && !st.Unverified }
	builds, tailed := 0, 0
	var built *grid
	for i := 0; i < 400; i++ {
		span := 20.0
		if i%7 == 0 {
			span = 40 // outside every box built so far, now and then
		}
		id := s.Add(mds.Coord{X: rng.Float64()*span - span/4, Y: rng.Float64()*span - span/4}, nil, 0)
		switch {
		case rng.Float64() < 0.3:
			if err := s.MarkViolation(id); err != nil {
				t.Fatal(err)
			}
		case rng.Float64() < 0.1:
			if err := s.MarkUnverified(id); err != nil {
				t.Fatal(err)
			}
		}
		if i == 250 {
			moved := s.Coords()
			for j := range moved {
				moved[j].X += 3
			}
			if err := s.SetCoords(moved); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			continue // let the tail grow between queries
		}
		for q := 0; q < 4; q++ {
			p := mds.Coord{X: rng.Float64()*60 - 20, Y: rng.Float64()*60 - 20}
			if q == 0 {
				p = s.states[rng.Intn(len(s.states))].Coord
			}
			gd, gid, gok := s.NearestSafe(p)
			bd, _, bok := bruteNearest(s.states, p, verified)
			if gok != bok {
				t.Fatalf("%d states, query %v: ok %v vs brute %v", len(s.states), p, gok, bok)
			}
			if gok && (math.Float64bits(gd) != math.Float64bits(bd) || !verified(&s.states[gid]) || p.Dist(s.states[gid].Coord) != gd) {
				t.Fatalf("%d states, query %v: (%v, %d), brute-force distance %v", len(s.states), p, gd, gid, bd)
			}
			ad, _, _ := s.NearestAny(p)
			if bd, _, _ := bruteNearest(s.states, p, func(*State) bool { return true }); math.Float64bits(ad) != math.Float64bits(bd) {
				t.Fatalf("%d states, query %v: nearest of any label %v, brute force %v", len(s.states), p, ad, bd)
			}
		}
		if s.grid != built {
			built, builds = s.grid, builds+1
		}
		if s.grid.n < len(s.states) {
			tailed++
		}
	}
	// √n amortisation: 400 Adds must not have cost anything near 400 builds,
	// and most queries must have been answered with a tail standing.
	if builds < 3 || builds > 60 || tailed < 100 {
		t.Fatalf("%d grid builds, %d query rounds over a tail: the surviving grid was not exercised", builds, tailed)
	}
}

func TestGridCoincidentStates(t *testing.T) {
	s := NewSpace()
	for i := 0; i < 5; i++ {
		s.Add(mds.Coord{X: 1, Y: 1}, nil, 0)
	}
	d, _, ok := s.NearestAny(mds.Coord{X: 1, Y: 1})
	if !ok || d != 0 {
		t.Errorf("nearest among coincident = %v,%v", d, ok)
	}
	d, _, ok = s.NearestAny(mds.Coord{X: 4, Y: 5})
	if !ok || math.Abs(d-5) > 1e-12 {
		t.Errorf("distance = %v, want 5", d)
	}
}

func TestGridRebuildAfterSetCoords(t *testing.T) {
	s := NewSpace()
	a := s.Add(mds.Coord{X: 0, Y: 0}, nil, 0)
	b := s.Add(mds.Coord{X: 10, Y: 0}, nil, 0)
	// Prime the grid.
	if _, id, _ := s.NearestAny(mds.Coord{X: 1, Y: 0}); id != a {
		t.Fatalf("nearest = %d, want %d", id, a)
	}
	// Swap positions; the cached grid must be invalidated.
	if err := s.SetCoords([]mds.Coord{{X: 10, Y: 0}, {X: 0, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, id, _ := s.NearestAny(mds.Coord{X: 1, Y: 0}); id != b {
		t.Errorf("nearest after move = %d, want %d", id, b)
	}
}

func TestGridQueryFarOutsideBounds(t *testing.T) {
	s := NewSpace()
	s.Add(mds.Coord{X: 0, Y: 0}, nil, 0)
	s.Add(mds.Coord{X: 1, Y: 1}, nil, 0)
	d, id, ok := s.NearestAny(mds.Coord{X: 1000, Y: 1000})
	if !ok {
		t.Fatal("expected a result")
	}
	want := mds.Coord{X: 1, Y: 1}.Dist(mds.Coord{X: 1000, Y: 1000})
	if id != 1 || math.Abs(d-want) > 1e-9 {
		t.Errorf("far query: id=%d d=%v, want id=1 d=%v", id, d, want)
	}
}

// mapGrid is the grid the flat one replaced — cells in a map, a slice of
// dy offsets per ring column — kept as the reference for visiting order:
// equal distances resolve to the first cell visited, so the flat grid must
// walk cells exactly as this one does to return the same ids.
type mapGrid struct {
	*grid
	states []State
	cells  map[int][]int
}

func buildMapGrid(states []State) *mapGrid {
	g := &mapGrid{grid: buildGrid(states), states: states, cells: make(map[int][]int)}
	for i, st := range states {
		g.cells[g.key(st.Coord)] = append(g.cells[g.key(st.Coord)], i)
	}
	return g
}

func (g *mapGrid) nearest(p mds.Coord, pred func(*State) bool) (float64, int, bool) {
	if len(g.states) == 0 {
		return 0, 0, false
	}
	cx, cy := g.cellOf(p)
	best := math.Inf(1)
	bestID := -1
	maxRing := g.cols
	if g.rows > maxRing {
		maxRing = g.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		if bestID >= 0 && float64(ring-1)*g.cellSize > best {
			break
		}
		g.visitRing(cx, cy, ring, func(ids []int) {
			for _, i := range ids {
				st := &g.states[i]
				if !pred(st) {
					continue
				}
				d := p.Dist(st.Coord)
				if d < best {
					best = d
					bestID = i
				}
			}
		})
	}
	if bestID < 0 {
		return 0, 0, false
	}
	return best, g.states[bestID].ID, true
}

func (g *mapGrid) visitRing(cx, cy, ring int, fn func(ids []int)) {
	if ring == 0 {
		if ids, ok := g.cells[cy*g.cols+cx]; ok {
			fn(ids)
		}
		return
	}
	for dx := -ring; dx <= ring; dx++ {
		for _, dy := range ringDY(dx, ring) {
			x, y := cx+dx, cy+dy
			if x < 0 || y < 0 || x >= g.cols || y >= g.rows {
				continue
			}
			if ids, ok := g.cells[y*g.cols+x]; ok {
				fn(ids)
			}
		}
	}
}

func ringDY(dx, ring int) []int {
	if dx == -ring || dx == ring {
		out := make([]int, 0, 2*ring+1)
		for dy := -ring; dy <= ring; dy++ {
			out = append(out, dy)
		}
		return out
	}
	return []int{-ring, ring}
}

func TestFlatGridMatchesMapGridAndBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sets := map[string][]mds.Coord{
		"single":     {{X: 3, Y: 4}},
		"coincident": {{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}},
	}
	for i := 0; i < 400; i++ {
		sets["uniform"] = append(sets["uniform"], mds.Coord{X: rng.Float64() * 20, Y: rng.Float64() * 20})
		cluster := float64(i % 3 * 8)
		sets["clustered"] = append(sets["clustered"], mds.Coord{X: cluster + rng.NormFloat64()*0.3, Y: cluster + rng.NormFloat64()*2})
		sets["horizontal"] = append(sets["horizontal"], mds.Coord{X: rng.Float64() * 50, Y: 7})
		// An integer lattice visited twice: every state has a twin, and
		// queries on lattice and half-lattice points are equidistant from
		// two, four or eight states.
		sets["lattice"] = append(sets["lattice"], mds.Coord{X: float64(i % 10), Y: float64(i / 10 % 20)})
	}
	preds := map[string]func(*State) bool{
		"any":      func(*State) bool { return true },
		"none":     func(*State) bool { return false },
		"safe":     func(st *State) bool { return st.Label == Safe },
		"verified": func(st *State) bool { return st.Label == Safe && !st.Unverified },
		"sparse":   func(st *State) bool { return st.ID%17 == 0 },
	}
	for name, coords := range sets {
		s := NewSpace()
		for _, c := range coords {
			id := s.Add(c, nil, 0)
			switch rng.Intn(4) {
			case 0:
				_ = s.MarkViolation(id)
			case 1:
				_ = s.MarkUnverified(id)
			}
		}
		flat, ref := buildGrid(s.states), buildMapGrid(s.states)
		var queries []mds.Coord
		for q := 0; q < 300; q++ {
			queries = append(queries,
				mds.Coord{X: rng.Float64()*60 - 5, Y: rng.Float64()*30 - 5},
				mds.Coord{X: float64(rng.Intn(24)-2) / 2, Y: float64(rng.Intn(44)-2) / 2})
		}
		queries = append(queries, coords...)
		for predName, pred := range preds {
			for _, p := range queries {
				d, id, ok := flat.nearest(s.states, p, pred)
				rd, rid, rok := ref.nearest(p, pred)
				if ok != rok || id != rid || math.Float64bits(d) != math.Float64bits(rd) {
					t.Fatalf("%s/%s query %v: flat grid (%v, %d, %v), map grid (%v, %d, %v)",
						name, predName, p, d, id, ok, rd, rid, rok)
				}
				bd, _, bok := bruteNearest(s.states, p, pred)
				if ok != bok {
					t.Fatalf("%s/%s query %v: ok %v, brute force %v", name, predName, p, ok, bok)
				}
				if !ok {
					continue
				}
				if d != bd || !pred(&s.states[id]) || p.Dist(s.states[id].Coord) != d {
					t.Fatalf("%s/%s query %v: (%v, %d), brute-force distance %v", name, predName, p, d, id, bd)
				}
			}
		}
	}
}

func BenchmarkGridNearest1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewSpace()
	for i := 0; i < 1000; i++ {
		s.Add(mds.Coord{X: rng.Float64() * 100, Y: rng.Float64() * 100}, nil, 0)
	}
	s.ensureGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mds.Coord{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		s.NearestAny(p)
	}
}
