package statespace

import (
	"fmt"
	"math"

	"repro/internal/mds"
	"repro/internal/metrics"
)

// Template query helpers: read-only violation-geometry queries over a
// learned map, used by the cluster scheduler (internal/sched) to rate
// candidate co-locations *before* they happen. Where the per-host runtime
// asks "is the current state heading into a violation-range?", the
// scheduler asks "if I added this batch job to that host, how close to a
// violation-range would the combined state land?" — the same learned
// geometry, queried prospectively.

// ViolationCount returns the number of violation-labelled states in the
// template without materializing a Space.
func (t *Template) ViolationCount() int {
	n := 0
	for _, st := range t.States {
		if st.Label == Violation.String() {
			n++
		}
	}
	return n
}

// SafeCount returns the number of safe-labelled states in the template.
func (t *Template) SafeCount() int { return len(t.States) - t.ViolationCount() }

// QueryMap is an immutable query view over one template: the imported
// state space, its violation-range discs, and the normalization ranges the
// template's vectors were measured under. It answers "where would this
// hypothetical measurement land, and how close is that to known trouble?"
// without mutating the map. Building one is O(states); queries are
// O(states) each (one out-of-sample placement plus a disc scan).
//
// QueryMap requires a version-2 template with the standard two-slot schema
// (sensitive VM + aggregated logical batch VM, §5): prospective scoring
// must know which vector positions belong to which role.
type QueryMap struct {
	app     string
	space   *Space
	coords  []mds.Coord
	vectors [][]float64
	discs   []Disc
	mets    []metrics.Metric
	ranges  map[metrics.Metric]metrics.Range
	safe    []mds.Coord
	// scale is the embedding's coordinate-range median c — the natural
	// length unit of the map, reused as the proximity decay constant.
	scale float64
}

// NewQueryMap validates and imports the template into a query view.
func NewQueryMap(t *Template) (*QueryMap, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(t.SchemaVMs) != 2 {
		return nil, fmt.Errorf("statespace: query map needs the two-slot (sensitive, batch) schema, template has %d VM slots: %w",
			len(t.SchemaVMs), ErrSchemaMismatch)
	}
	if len(t.States) == 0 {
		return nil, fmt.Errorf("statespace: query map over empty template for %q", t.SensitiveApp)
	}
	space, err := Import(t)
	if err != nil {
		return nil, err
	}
	q := &QueryMap{
		app:     t.SensitiveApp,
		space:   space,
		coords:  space.Coords(),
		vectors: space.Vectors(),
		discs:   space.ViolationRanges(),
		mets:    append([]metrics.Metric(nil), t.SchemaMetrics...),
		ranges:  make(map[metrics.Metric]metrics.Range, len(t.Ranges)),
		scale:   space.CoordinateRangeMedian(),
	}
	for _, st := range space.States() {
		if st.Label == Safe {
			q.safe = append(q.safe, st.Coord)
		}
	}
	for m, r := range t.Ranges {
		q.ranges[m] = r
	}
	return q, nil
}

// App returns the sensitive application the map characterizes.
func (q *QueryMap) App() string { return q.app }

// States returns the number of states in the map.
func (q *QueryMap) States() int { return q.space.Len() }

// HasViolations reports whether the map learned any violation-state — a
// map without violations cannot discriminate co-locations.
func (q *QueryMap) HasViolations() bool { return len(q.discs) > 0 }

// Metrics returns the template's metric order (one slot's worth).
func (q *QueryMap) Metrics() []metrics.Metric {
	return append([]metrics.Metric(nil), q.mets...)
}

// normalize scales one raw metric value into [0,1] using the template's
// recorded range; metrics the template has no range for pass through (the
// learning run opted them out too).
func (q *QueryMap) normalize(m metrics.Metric, v float64) float64 {
	r, ok := q.ranges[m]
	if !ok || r.Max <= 0 {
		return v
	}
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	nv := v / r.Max
	if nv > 1 {
		nv = 1
	}
	return nv
}

// CombinedVector flattens hypothetical raw usage for the sensitive slot
// and the aggregated batch slot into a normalized vector comparable with
// the template's states — the same (VM, metric) layout and the same
// normalization ranges the learning run used.
func (q *QueryMap) CombinedVector(sensitive, batch map[metrics.Metric]float64) []float64 {
	nm := len(q.mets)
	out := make([]float64, 2*nm)
	for i, m := range q.mets {
		out[i] = q.normalize(m, sensitive[m])
		out[nm+i] = q.normalize(m, batch[m])
	}
	return out
}

// Project embeds a normalized vector into the template's 2-D layout by
// single-point stress minimization (mds.Place) against the existing
// configuration (the out-of-sample extension of §4's incremental
// placement): the point
// lands where its vector-space distances to every known state are best
// preserved.
func (q *QueryMap) Project(vec []float64) (mds.Coord, error) {
	if len(vec) != 2*len(q.mets) {
		return mds.Coord{}, fmt.Errorf("statespace: project dim %d, template dim %d", len(vec), 2*len(q.mets))
	}
	delta := make([]float64, len(q.vectors))
	for i, sv := range q.vectors {
		var sum float64
		for j := range sv {
			d := vec[j] - sv[j]
			sum += d * d
		}
		delta[i] = math.Sqrt(sum)
	}
	coord, _, err := mds.Place(q.coords, delta, mds.PlaceOptions{})
	if err != nil {
		return mds.Coord{}, err
	}
	return coord, nil
}

// ViolationProximity maps a projected coordinate to a violation likelihood
// in [0,1]: 1 inside any violation-range disc, decaying as
// exp(−(margin/c)²) with the distance past the nearest disc boundary,
// where c is the map's coordinate-range median — the same length unit the
// Rayleigh range weighting of §3.2.2 is expressed in. A map with no
// violation-states returns 0 (nothing to stay away from — yet).
func (q *QueryMap) ViolationProximity(p mds.Coord) float64 {
	if len(q.discs) == 0 {
		return 0
	}
	margin := math.Inf(1)
	for _, d := range q.discs {
		m := d.Center.Dist(p) - d.Radius
		if m < margin {
			margin = m
		}
	}
	if margin <= 0 {
		return 1
	}
	scale := q.scale
	if scale <= 0 {
		// Degenerate single-cluster map: any positive margin is "far".
		return 0
	}
	return math.Exp(-(margin / scale) * (margin / scale))
}

// SafeProximity maps a projected coordinate to a safe likelihood in
// [0,1]: 1 at a known safe state, decaying as exp(−(d/c)²) with the
// distance d to the nearest one. 0 when the map has no safe states.
func (q *QueryMap) SafeProximity(p mds.Coord) float64 {
	if len(q.safe) == 0 {
		return 0
	}
	d := math.Inf(1)
	for _, s := range q.safe {
		if sd := s.Dist(p); sd < d {
			d = sd
		}
	}
	if d <= 0 {
		return 1
	}
	scale := q.scale
	if scale <= 0 {
		return 1
	}
	return math.Exp(-(d / scale) * (d / scale))
}

// Score is the one-call form: build the combined vector, project it, and
// return the predicted violation risk as the *relative* violation
// proximity pV/(pV+pS). Pure violation proximity is not enough for
// prospective queries: a hypothetical co-location far from every learned
// state has pV ≈ 0, which proximity alone would read as "safe" when it
// actually means "never seen" — and a scheduler that scores uncharted
// combinations as safe piles batch jobs onto one host. The relative form
// keeps known-safe placements near 0, known-violating ones near 1, and
// pushes unknown territory toward whichever labelled region is closer.
// A map with no violation-states returns 0: nothing to stay away from.
func (q *QueryMap) Score(sensitive, batch map[metrics.Metric]float64) (float64, error) {
	coord, err := q.Project(q.CombinedVector(sensitive, batch))
	if err != nil {
		return 0, err
	}
	if len(q.discs) == 0 {
		return 0, nil
	}
	pV := q.ViolationProximity(coord)
	pS := q.SafeProximity(coord)
	if pV+pS == 0 {
		// Off every edge of the map, violation and safe both unreachable:
		// genuinely uninformative.
		return 0.5, nil
	}
	return pV / (pV + pS), nil
}
