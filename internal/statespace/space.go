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
func (d Disc) Contains(p mds.Coord) bool {
	return d.Center.Dist(p) <= d.Radius
}

// RangePolicy computes a violation-range radius from the distance d to
// the nearest safe-state and the coordinate-range median c. The default is
// the paper's Rayleigh weighting; the ablation benchmarks substitute fixed
// or linear policies.
type RangePolicy func(d, c float64) float64

// Space is the collection of mapped states. The zero value is an empty,
// usable space with the default Rayleigh range policy.
type Space struct {
	states []State
	grid   *grid
	// violations caches the IDs of violation-states.
	violations []int
	// rangePolicy overrides the Rayleigh weighting when non-nil.
	rangePolicy RangePolicy
}

// SetRangePolicy overrides how violation-range radii are derived. Passing
// nil restores the paper's Rayleigh weighting.
func (s *Space) SetRangePolicy(p RangePolicy) { s.rangePolicy = p }

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

// States returns a copy of all states.
func (s *Space) States() []State {
	out := make([]State, len(s.states))
	copy(out, s.states)
	for i := range out {
		out[i].Vector = append([]float64(nil), out[i].Vector...)
	}
	return out
}

// Add inserts a new state and returns its ID. The vector is copied.
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
	s.grid = nil
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
	if s.states[id].Label != Violation {
		s.states[id].Label = Violation
		s.violations = append(s.violations, id)
	}
	s.states[id].Unverified = false
	return nil
}

// MarkUnverified flags state id as created under a stale QoS signal, so
// it does not count as a safe-state anchor. Violation-states are never
// unverified (the violation report is the evidence).
func (s *Space) MarkUnverified(id int) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	if s.states[id].Label == Safe {
		s.states[id].Unverified = true
	}
	return nil
}

// ClearUnverified records that state id was revisited under a fresh QoS
// signal without a violation — it is now a verified safe-state.
func (s *Space) ClearUnverified(id int) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	s.states[id].Unverified = false
	return nil
}

// UnverifiedIDs returns the IDs of all unverified states, in ID order.
func (s *Space) UnverifiedIDs() []int {
	var out []int
	for _, st := range s.states {
		if st.Unverified {
			out = append(out, st.ID)
		}
	}
	return out
}

// SetCoord moves one state (used by incremental placement refinement).
func (s *Space) SetCoord(id int, c mds.Coord) error {
	if id < 0 || id >= len(s.states) {
		return fmt.Errorf("statespace: state %d out of range", id)
	}
	s.states[id].Coord = c
	s.grid = nil
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
	s.grid = nil
	return nil
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
	return append([]int(nil), s.violations...)
}

// HasViolations reports whether any violation-state exists yet.
func (s *Space) HasViolations() bool { return len(s.violations) > 0 }

// CoordinateRangeMedian returns c, "the median of the coordinate range of
// the mapped space" (§3.2.2): the median of the per-dimension extents of
// the current embedding. It returns 0 for spaces with fewer than two
// states (no meaningful extent exists yet).
func (s *Space) CoordinateRangeMedian() float64 {
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

// NearestSafe returns the distance from p to the nearest *verified*
// safe-state and that state's ID. ok is false when no such state exists.
// Unverified states (created under a stale QoS signal) are skipped: an
// unproven "safe" state must not shrink the violation-ranges around it.
func (s *Space) NearestSafe(p mds.Coord) (dist float64, id int, ok bool) {
	s.ensureGrid()
	return s.grid.nearest(p, func(st *State) bool { return st.Label == Safe && !st.Unverified })
}

// NearestAny returns the distance from p to the nearest state of any label.
func (s *Space) NearestAny(p mds.Coord) (dist float64, id int, ok bool) {
	s.ensureGrid()
	return s.grid.nearest(p, func(*State) bool { return true })
}

// ViolationRanges computes the current violation-range disc for every
// violation-state: radius R = d·exp(−d²/(2c²)) with d the distance to the
// nearest safe-state and c the coordinate-range median (§3.2.2). When no
// safe-state exists yet, d falls back to c (maximal uncertainty); when the
// space has no extent at all, the radius is 0.
func (s *Space) ViolationRanges() []Disc {
	if len(s.violations) == 0 {
		return nil
	}
	c := s.CoordinateRangeMedian()
	policy := s.rangePolicy
	if policy == nil {
		policy = stats.RayleighWeight
	}
	out := make([]Disc, 0, len(s.violations))
	for _, id := range s.violations {
		v := s.states[id]
		d, _, ok := s.NearestSafe(v.Coord)
		if !ok {
			d = c
		}
		out = append(out, Disc{
			Center:  v.Coord,
			Radius:  policy(d, c),
			StateID: id,
		})
	}
	return out
}

// InViolationRange reports whether p falls inside any violation-range, and
// if so returns the owning disc.
func (s *Space) InViolationRange(p mds.Coord) (Disc, bool) {
	for _, d := range s.ViolationRanges() {
		if d.Contains(p) {
			return d, true
		}
	}
	return Disc{}, false
}

func (s *Space) ensureGrid() {
	if s.grid == nil {
		s.grid = buildGrid(s.states)
	}
}
