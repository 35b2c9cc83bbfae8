// Package statespace maintains Stay-Away's 2-D state-space representation
// (§3.1–§3.2): the mapped-states produced by MDS, their safe/violation
// labels, the Rayleigh-weighted violation-ranges around violation-states
// (§3.2.2), nearest-neighbour queries backed by a uniform grid index, and
// the template export/import of §6 that lets a map learned with one batch
// co-runner seed future executions with different co-runners.
package statespace

import (
	"fmt"
	"math"

	"repro/internal/mds"
	"repro/internal/stats"
)

// Label classifies a mapped state.
type Label int

const (
	// Safe marks a mapped-state not associated with any QoS violation.
	Safe Label = iota
	// Violation marks a mapped-state observed during a reported QoS
	// violation.
	Violation
)

// String returns "safe" or "violation".
func (l Label) String() string {
	switch l {
	case Safe:
		return "safe"
	case Violation:
		return "violation"
	default:
		return fmt.Sprintf("label(%d)", int(l))
	}
}

// State is one mapped-state: a representative measurement vector, its 2-D
// embedding, and its violation label.
type State struct {
	// ID is the state's index within its Space, assigned at creation.
	ID int
	// Coord is the state's current position in the 2-D mapped space.
	Coord mds.Coord
	// Label records whether any observation of this state coincided with a
	// QoS violation. Once Violation, always Violation: a state that caused
	// degradation once is permanently unsafe (§3.2.1).
	Label Label
	// Unverified marks a Safe-labelled state first observed while the
	// application's QoS signal was stale (no fresh report for several
	// periods). The absence of a violation report proves nothing then, so
	// such states are excluded from safe-state queries — they must not
	// shrink violation-ranges — until a revisit under a fresh signal
	// verifies them. MarkViolation clears the flag: a violation report is
	// itself fresh evidence.
	Unverified bool
	// Weight counts how many raw observations this representative absorbed.
	Weight int
	// FirstPeriod and LastPeriod bound when the state was observed.
	FirstPeriod, LastPeriod int
	// Vector is the representative (normalized) measurement vector.
	Vector []float64
}

// Disc is a violation-range: the unexplored neighbourhood around a
// violation-state deemed dangerous.
type Disc struct {
	Center mds.Coord
	Radius float64
	// StateID is the violation-state the disc belongs to.
	StateID int
}

// Contains reports whether p falls inside the disc (boundary inclusive).
func (d Disc) Contains(p mds.Coord) bool { return within(d.Center, p, d.Radius) }

// within reports whether q lies no farther than r from p. A point farther
// than r along one axis is rejected before the Hypot — exactly, because
// math.Hypot(dx, dy) ≥ max(|dx|, |dy|).
func within(p, q mds.Coord, r float64) bool {
	if math.Abs(p.X-q.X) > r || math.Abs(p.Y-q.Y) > r {
		return false
	}
	return p.Dist(q) <= r
}

// RangePolicy computes a violation-range radius from the distance d to
// the nearest safe-state and the coordinate-range median c. The default is
// the paper's Rayleigh weighting; the ablation benchmarks substitute fixed
// or linear policies.
type RangePolicy func(d, c float64) float64

// Space is the collection of mapped states. The zero value is an empty,
// usable space with the default Rayleigh range policy. Like the Lane that
// owns it, a Space is not safe for concurrent use: its queries fill caches.
type Space struct {
	states []State
	// grid indexes the states it was built over; states added since are
	// its tail. nil until the first query and after a coordinate moved.
	grid *grid
	// ranges holds one entry per violation-state, in labelling order.
	ranges []vrange
	// unverified counts the states whose Unverified flag is set.
	unverified int
	// rangePolicy overrides the Rayleigh weighting when non-nil.
	rangePolicy RangePolicy

	// What a period would otherwise recompute. Each is filled by the first
	// query that needs it and from then on kept current by the mutators
	// (DESIGN §5 has the table): the bounding box of every coordinate;
	// every range's dist and anchor; every range's radius, derived under
	// the coordinate-range median c. radiiOK implies the other two.
	box                    bounds
	c                      float64
	boxOK, nearOK, radiiOK bool
}

// vrange is what the space keeps per violation-state so that a period need
// not recompute its disc: the distance to the nearest verified safe-state
// and the state that gave it (anchor −1: there is none), and the radius
// derived from that distance. The centre is the state's own coordinate.
type vrange struct {
	dist, radius float64
	id, anchor   int32
}

// bounds is an axis-aligned bounding box.
type bounds struct{ minX, maxX, minY, maxY float64 }

// with returns b extended to hold p.
func (b bounds) with(p mds.Coord) bounds {
	return bounds{math.Min(b.minX, p.X), math.Max(b.maxX, p.X), math.Min(b.minY, p.Y), math.Max(b.maxY, p.Y)}
}

// boundsOf returns the bounding box of every state's coordinate.
func boundsOf(states []State) bounds {
	b := bounds{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
	for i := range states {
		b = b.with(states[i].Coord)
	}
	return b
}

// SetRangePolicy overrides how violation-range radii are derived. Passing
// nil restores the paper's Rayleigh weighting.
func (s *Space) SetRangePolicy(p RangePolicy) { s.rangePolicy, s.radiiOK = p, false }

// NewSpace returns an empty state space.
func NewSpace() *Space { return &Space{} }

// Len returns the number of states.
func (s *Space) Len() int { return len(s.states) }

// State returns a copy of state id.
func (s *Space) State(id int) (State, error) {
	if id < 0 || id >= len(s.states) {
		return State{}, fmt.Errorf("statespace: state %d out of range [0,%d)", id, len(s.states))
	}
	st := s.states[id]
	st.Vector = append([]float64(nil), st.Vector...)
	return st, nil
}

// At returns state id's position and representative vector without
// copying (the vector is shared; callers must not mutate it). Like a
// slice index, it panics when id is out of range.
func (s *Space) At(id int) (mds.Coord, []float64) {
	st := &s.states[id]
	return st.Coord, st.Vector
}

// FirstWithin returns the first state, in ID order, whose representative
// vector lies within eps of v by mds.Euclidean — the dedup rule that maps
// an observation onto a known state. eps <= 0 matches nothing. It
// allocates nothing.
func (s *Space) FirstWithin(v []float64, eps float64) (id int, ok bool) {
	if eps > 0 {
		for i := range s.states {
			if mds.Euclidean(v, s.states[i].Vector) <= eps {
				return i, true
			}
		}
	}
	return 0, false
}

// States returns a copy of all states.
func (s *Space) States() []State {
	out := make([]State, len(s.states))
	copy(out, s.states)
	for i := range out {
		out[i].Vector = append([]float64(nil), out[i].Vector...)
	}
	return out
}

// Add inserts a new state — safe and verified — and returns its ID. The
// vector is copied. The spatial index survives: the state joins its tail.
func (s *Space) Add(coord mds.Coord, vector []float64, period int) int {
	id := len(s.states)
	s.states = append(s.states, State{
		ID:          id,
		Coord:       coord,
		Label:       Safe,
		Weight:      1,
		FirstPeriod: period,
		LastPeriod:  period,
		Vector:      append([]float64(nil), vector...),
	})
	if s.boxOK {
		if b := s.box.with(coord); b != s.box {
			s.box, s.radiiOK = b, false // c moved with the box
		}
	}
	s.tighten(id)
	return id
}

// Observe records a re-visit of an existing state.
func (s *Space) Observe(id, period int) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	s.states[id].Weight++
	s.states[id].LastPeriod = period
	return nil
}

// MarkViolation labels state id as a violation-state. Labelling is sticky.
func (s *Space) MarkViolation(id int) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	st := &s.states[id]
	if st.Label == Violation {
		return nil
	}
	st.Label = Violation
	if st.Unverified {
		st.Unverified = false
		s.unverified--
	}
	// The new range starts out anchored on its own state, so reanchor
	// locates it along with every range the state anchored while safe.
	s.ranges = append(s.ranges, vrange{id: int32(id), anchor: int32(id)})
	s.reanchor(id)
	return nil
}

// MarkUnverified flags state id as created under a stale QoS signal, so
// it does not count as a safe-state anchor. Violation-states are never
// unverified (the violation report is the evidence).
func (s *Space) MarkUnverified(id int) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	if st := &s.states[id]; st.Label == Safe && !st.Unverified {
		st.Unverified = true
		s.unverified++
		s.reanchor(id)
	}
	return nil
}

// ClearUnverified records that state id was revisited under a fresh QoS
// signal without a violation — it is now a verified safe-state.
func (s *Space) ClearUnverified(id int) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	if st := &s.states[id]; st.Unverified {
		st.Unverified = false
		s.unverified--
		s.tighten(id)
	}
	return nil
}

// UnverifiedCount returns the number of unverified states.
func (s *Space) UnverifiedCount() int { return s.unverified }

// SetCoord moves one state (used by incremental placement refinement).
func (s *Space) SetCoord(id int, c mds.Coord) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	s.states[id].Coord = c
	s.moved()
	return nil
}

// SetCoords replaces every state's position after a full SMACOF refresh.
// The slice must have exactly one coordinate per state, in ID order.
func (s *Space) SetCoords(coords []mds.Coord) error {
	if len(coords) != len(s.states) {
		return fmt.Errorf("statespace: %d coords for %d states", len(coords), len(s.states))
	}
	for i := range s.states {
		s.states[i].Coord = coords[i]
	}
	s.moved()
	return nil
}

// moved drops everything derived from coordinates.
func (s *Space) moved() {
	s.grid = nil
	s.boxOK, s.nearOK, s.radiiOK = false, false, false
}

// Coords returns all state positions in ID order.
func (s *Space) Coords() []mds.Coord {
	out := make([]mds.Coord, len(s.states))
	for i, st := range s.states {
		out[i] = st.Coord
	}
	return out
}

// Vectors returns all representative vectors in ID order (shared slices;
// callers must not mutate).
func (s *Space) Vectors() [][]float64 {
	out := make([][]float64, len(s.states))
	for i := range s.states {
		out[i] = s.states[i].Vector
	}
	return out
}

// ViolationIDs returns the IDs of all violation-states.
func (s *Space) ViolationIDs() []int {
	out := make([]int, len(s.ranges))
	for i, r := range s.ranges {
		out[i] = int(r.id)
	}
	return out
}

// ViolationCount returns the number of violation-states.
func (s *Space) ViolationCount() int { return len(s.ranges) }

// HasViolations reports whether any violation-state exists yet.
func (s *Space) HasViolations() bool { return len(s.ranges) > 0 }

// CoordinateRangeMedian returns c, "the median of the coordinate range of
// the mapped space" (§3.2.2): the median of the per-dimension extents of
// the current embedding. It returns 0 for spaces with fewer than two
// states (no meaningful extent exists yet).
func (s *Space) CoordinateRangeMedian() float64 {
	if !s.boxOK {
		s.box, s.boxOK = boundsOf(s.states), true
	}
	if len(s.states) < 2 {
		return 0
	}
	m, err := stats.Median([]float64{s.box.maxX - s.box.minX, s.box.maxY - s.box.minY})
	if err != nil {
		return 0
	}
	return m
}

// NearestSafe returns the distance from p to the nearest *verified*
// safe-state and that state's ID. ok is false when no such state exists.
// Unverified states (created under a stale QoS signal) are skipped: an
// unproven "safe" state must not shrink the violation-ranges around it.
// Among equidistant states which ID is returned is unspecified.
func (s *Space) NearestSafe(p mds.Coord) (dist float64, id int, ok bool) {
	s.ensureGrid()
	return s.grid.nearest(s.states, p, func(st *State) bool { return st.Label == Safe && !st.Unverified })
}

// NearestAny returns the distance from p to the nearest state of any label.
func (s *Space) NearestAny(p mds.Coord) (dist float64, id int, ok bool) {
	s.ensureGrid()
	return s.grid.nearest(s.states, p, func(*State) bool { return true })
}

// ViolationRanges returns the current violation-range disc of every
// violation-state: radius R = d·exp(−d²/(2c²)) with d the distance to the
// nearest safe-state and c the coordinate-range median (§3.2.2). When no
// safe-state exists yet, d falls back to c (maximal uncertainty); when the
// space has no extent at all, the radius is 0.
func (s *Space) ViolationRanges() []Disc {
	if len(s.ranges) == 0 {
		return nil
	}
	s.refreshRanges()
	out := make([]Disc, len(s.ranges))
	for i := range s.ranges {
		out[i] = s.disc(&s.ranges[i])
	}
	return out
}

// InViolationRange reports whether p falls inside any violation-range, and
// if so returns the disc of the first violation-state, in labelling order,
// whose range holds it.
func (s *Space) InViolationRange(p mds.Coord) (Disc, bool) {
	s.refreshRanges()
	for i := range s.ranges {
		if r := &s.ranges[i]; within(s.states[r.id].Coord, p, r.radius) {
			return s.disc(r), true
		}
	}
	return Disc{}, false
}

func (s *Space) disc(r *vrange) Disc {
	return Disc{Center: s.states[r.id].Coord, Radius: r.radius, StateID: int(r.id)}
}

// refreshRanges fills whatever part of the range cache is not current:
// everything after a coordinate moved, the radii alone after c or the
// policy changed, nothing on the common period.
func (s *Space) refreshRanges() {
	if !s.nearOK {
		s.nearOK = true
		for i := range s.ranges {
			s.locate(&s.ranges[i])
		}
	}
	if !s.radiiOK {
		s.c, s.radiiOK = s.CoordinateRangeMedian(), true
		for i := range s.ranges {
			s.derive(&s.ranges[i])
		}
	}
}

// tighten is called when state id has become a verified safe-state: it is
// the new anchor of every range it is nearer to than the one before.
func (s *Space) tighten(id int) {
	if !s.nearOK {
		return
	}
	p := s.states[id].Coord
	for i := range s.ranges {
		r := &s.ranges[i]
		if d := s.states[r.id].Coord.Dist(p); d < r.dist {
			r.dist, r.anchor = d, int32(id)
			s.derive(r)
		}
	}
}

// reanchor is called when state id has stopped being a verified
// safe-state: every range anchored on it is located afresh.
func (s *Space) reanchor(id int) {
	if !s.nearOK {
		return
	}
	for i := range s.ranges {
		if r := &s.ranges[i]; int(r.anchor) == id {
			s.locate(r)
		}
	}
}

// locate queries r's nearest verified safe-state.
func (s *Space) locate(r *vrange) {
	d, anchor, ok := s.NearestSafe(s.states[r.id].Coord)
	if !ok {
		d, anchor = math.Inf(1), -1
	}
	r.dist, r.anchor = d, int32(anchor)
	s.derive(r)
}

// derive recomputes r's radius from its distance, unless every radius is
// due to be re-derived anyway.
func (s *Space) derive(r *vrange) {
	if !s.radiiOK {
		return
	}
	d := r.dist
	if r.anchor < 0 {
		d = s.c
	}
	policy := s.rangePolicy
	if policy == nil {
		policy = stats.RayleighWeight
	}
	r.radius = policy(d, s.c)
}

// ensureGrid builds the index when there is none, and rebuilds it once the
// tail of states added since has outgrown √n — so a query scans O(√n)
// unindexed states at worst and an Add costs O(√n) of rebuild, amortised.
func (s *Space) ensureGrid() {
	if s.grid != nil {
		if tail := len(s.states) - s.grid.n; tail*tail <= len(s.states) {
			return
		}
	}
	s.grid = buildGrid(s.states)
}
