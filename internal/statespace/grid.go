package statespace

import (
	"math"

	"repro/internal/mds"
)

// grid is a uniform spatial hash over state positions for nearest-neighbour
// queries. State counts stay modest (representative reduction keeps only
// distinct states), but a relabelled safe-state re-queries every
// violation-range anchored on it, so an index keeps the controller's
// per-period cost low (the paper's ~2% CPU overhead budget). It indexes
// the first n states — those that existed when it was built — and outlives
// later Adds: nearest scans the states past n, the tail, one by one.
type grid struct {
	n        int
	cellSize float64
	minX     float64
	minY     float64
	cols     int
	rows     int
	// Cell c holds states ids[start[c]:start[c+1]], in ascending order.
	start []int32
	ids   []int32
}

// targetPerCell tunes cell granularity: cells sized so an average cell
// holds about this many states.
const targetPerCell = 4

func buildGrid(states []State) *grid {
	g := &grid{n: len(states), cellSize: 1, cols: 1, rows: 1}
	if len(states) == 0 {
		g.start = make([]int32, 2) // one empty cell
		return g
	}
	b := boundsOf(states)
	g.minX, g.minY = b.minX, b.minY
	w, h := b.maxX-b.minX, b.maxY-b.minY
	// All states coincide (or the extent is not a finite number): one cell
	// is enough.
	if span := math.Max(w, h); span > 0 && !math.IsInf(span, 1) {
		nCells := math.Max(1, float64(len(states))/targetPerCell)
		side := math.Sqrt(nCells)
		g.cellSize = span / side
		g.cols = int(w/g.cellSize) + 1
		g.rows = int(h/g.cellSize) + 1
	}
	// Counting sort by cell; filling in state order keeps each cell's ids
	// ascending.
	g.start = make([]int32, g.cols*g.rows+1)
	for i := range states {
		g.start[g.key(states[i].Coord)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.ids = make([]int32, len(states))
	fill := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i := range states {
		c := g.key(states[i].Coord)
		g.ids[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

func (g *grid) cellOf(p mds.Coord) (cx, cy int) {
	cx = int((p.X - g.minX) / g.cellSize)
	cy = int((p.Y - g.minY) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

func (g *grid) key(p mds.Coord) int {
	cx, cy := g.cellOf(p)
	return cy*g.cols + cx
}

// nearest finds the closest of states satisfying pred — the tail first,
// then an expanding-ring search over the cells of the indexed prefix. It
// returns ok=false when no state matches.
func (g *grid) nearest(states []State, p mds.Coord, pred func(*State) bool) (dist float64, id int, ok bool) {
	best := math.Inf(1)
	bestID := -1
	consider := func(i int) {
		st := &states[i]
		if !pred(st) {
			return
		}
		if d := p.Dist(st.Coord); d < best {
			best = d
			bestID = i
		}
	}
	for i := g.n; i < len(states); i++ {
		consider(i)
	}
	cx, cy := g.cellOf(p)
	visit := func(x, y int) {
		if x < 0 || y < 0 || x >= g.cols || y >= g.rows {
			return
		}
		c := y*g.cols + x
		for _, i := range g.ids[g.start[c]:g.start[c+1]] {
			consider(int(i))
		}
	}
	maxRing := g.cols
	if g.rows > maxRing {
		maxRing = g.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is found, one extra ring guarantees correctness:
		// a state in a farther ring is at least (ring−1)·cellSize away.
		if bestID >= 0 && float64(ring-1)*g.cellSize > best {
			break
		}
		// The square ring of this radius, column by column: the two end
		// columns in full, top and bottom cells of those between. Equal
		// distances resolve to the first state considered, so the order is
		// part of the result.
		for dx := -ring; dx <= ring; dx++ {
			if dx == -ring || dx == ring {
				for dy := -ring; dy <= ring; dy++ {
					visit(cx+dx, cy+dy)
				}
				continue
			}
			visit(cx+dx, cy-ring)
			visit(cx+dx, cy+ring)
		}
	}
	if bestID < 0 {
		return 0, 0, false
	}
	return best, states[bestID].ID, true
}
