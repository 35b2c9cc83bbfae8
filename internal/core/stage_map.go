package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/statespace"
)

// mapStage is the default Mapper: the §3.1 measurement pipeline plus the
// §4 embedding. It owns the normalizer, the vectorizer (whose vector is
// this lane's, reused every period) and the state space — the one store
// of representative vectors, which §4's dedup scans — and is the single
// writer of violation/unverified labels.
type mapStage struct {
	cfg Config
	rng *rand.Rand

	schema     *metrics.Schema
	normalizer *metrics.Normalizer
	vectorizer *metrics.Vectorizer
	space      *statespace.Space

	createdSinceSMAC int
	// qosSilent counts consecutive periods without a fresh QoS report; at
	// Config.QoSStaleAfter the signal is considered stale.
	qosSilent int
	refreshes int
	stress    float64

	// The persistent landmark basis: the landmark set of the last landmark
	// solve or adopted fleet layout (merge.go), grown online, and the
	// radius within which that set covered the states it saw. The landmark
	// configuration itself is not kept — it is the landmarks' coordinates
	// in the space. While the basis stands, a new state is placed against
	// the landmarks only, and one that arrives farther than coverRadius
	// from every landmark — the point farthest-point selection would have
	// picked next — joins them, so every state stays within coverRadius of
	// a landmark without a solve. A scheduled refresh re-solves only once
	// the set has doubled. nil below Config.LandmarkThreshold and after the
	// map was replaced.
	landmarks        []int
	coverRadius      float64
	refreshesSkipped int
}

var _ Mapper = (*mapStage)(nil)

// newMapStage assembles the mapping pipeline from an already-validated
// config.
func newMapStage(cfg Config, rng *rand.Rand) (*mapStage, error) {
	schemaVMs := []string{cfg.SensitiveID, cfg.LogicalBatchVM}
	logicalVM := cfg.LogicalBatchVM
	if cfg.DisableBatchAggregation {
		schemaVMs = append([]string{cfg.SensitiveID}, cfg.BatchIDs...)
		logicalVM = ""
	}
	schema, err := metrics.NewSchema(schemaVMs, metrics.DefaultMetrics())
	if err != nil {
		return nil, err
	}
	normalizer, err := metrics.NewNormalizer(cfg.Ranges)
	if err != nil {
		return nil, err
	}
	vectorizer, err := metrics.NewVectorizer(schema, normalizer, logicalVM, cfg.BatchIDs)
	if err != nil {
		return nil, err
	}
	space := statespace.NewSpace()
	space.SetRangePolicy(cfg.RangePolicy)
	return &mapStage{
		cfg:        cfg,
		rng:        rng,
		schema:     schema,
		normalizer: normalizer,
		vectorizer: vectorizer,
		space:      space,
	}, nil
}

// Space implements Mapper.
func (m *mapStage) Space() *statespace.Space { return m.space }

// Map implements Mapper: aggregate → normalize → flatten (one pass, into
// the vectorizer's vector) → embed → label. The vector is read, never
// kept: the space copies a new state's.
func (m *mapStage) Map(in PeriodInput) (MapOutcome, error) {
	var out MapOutcome
	vec, err := m.vectorizer.Vector(in.Samples)
	if err != nil {
		return out, fmt.Errorf("core: flatten samples: %w", err)
	}

	stateID, created, err := m.mapVector(in.Period, vec)
	if err != nil {
		return out, err
	}
	out.StateID = stateID
	out.NewState = created
	out.Coord, _ = m.space.At(stateID)

	if in.Violation {
		if err := m.space.MarkViolation(stateID); err != nil {
			return out, err
		}
	}

	// QoS-signal staleness: silence is not safety. When the application
	// stops reporting, the absence of violations proves nothing, so new
	// states created during the silent stretch must not become safe-state
	// anchors (they would shrink the violation-ranges around real
	// violation-states).
	fresh := true
	if in.HasFreshness && m.cfg.QoSStaleAfter > 0 {
		fresh = in.QoSFresh || in.Violation
	}
	if fresh {
		m.qosSilent = 0
	} else {
		m.qosSilent++
	}
	stale := m.cfg.QoSStaleAfter > 0 && m.qosSilent >= m.cfg.QoSStaleAfter
	out.Stale = stale
	if stale {
		if created {
			if err := m.space.MarkUnverified(stateID); err != nil {
				return out, err
			}
		}
	} else if !created && !in.Violation && fresh {
		// A fresh-signal revisit without a violation verifies the state.
		if err := m.space.ClearUnverified(stateID); err != nil {
			return out, err
		}
	}
	return out, nil
}

// mapVector maps a normalized measurement vector to a state — the first
// within DedupEpsilon (§4's representative-sample reduction) or a new
// representative, placed — and refreshes the whole embedding
// periodically.
func (m *mapStage) mapVector(period int, vec []float64) (stateID int, created bool, err error) {
	if id, ok := m.space.FirstWithin(vec, m.cfg.DedupEpsilon); ok {
		if err := m.space.Observe(id, period); err != nil {
			return 0, false, err
		}
		return id, false, nil
	}
	id, err := m.createState(vec, period)
	if err != nil {
		return 0, false, err
	}
	return id, true, nil
}

// createState makes vec a new state: placed in the current layout,
// promoted to landmark when the basis does not cover it, and counted
// toward the scheduled refresh.
func (m *mapStage) createState(vec []float64, period int) (int, error) {
	pos, nearest, err := m.place(vec)
	if err != nil {
		return 0, fmt.Errorf("core: incremental placement: %w", err)
	}
	id := m.space.Add(pos, vec, period)
	if nearest > m.coverRadius {
		m.landmarks = append(m.landmarks, id)
	}
	m.createdSinceSMAC++

	// Periodic full refresh: SMACOF over all representatives, aligned back
	// onto the previous layout so trajectories stay comparable across
	// refreshes. The first refresh fires as soon as four distinct states
	// exist, because purely incremental placement of the earliest states
	// is at its least reliable then — unless an adopted fleet layout
	// already gave the map its basis.
	needRefresh := m.createdSinceSMAC >= m.cfg.RefreshEvery ||
		(m.refreshes == 0 && m.landmarks == nil && m.space.Len() >= 4)
	if m.cfg.RefreshEvery > 0 && needRefresh && m.space.Len() >= 3 {
		if err := m.refreshEmbedding(); err != nil {
			return 0, err
		}
		m.createdSinceSMAC = 0
	}
	return id, nil
}

// place positions a new state's vector in the current layout by
// incremental placement (§4's low-overhead path): against every state, or
// against the landmarks alone while a landmark basis stands — the same
// triangulation the landmark solve itself gave every non-landmark.
// nearest is the vector's distance to the nearest landmark, 0 with no
// basis.
func (m *mapStage) place(vec []float64) (pos mds.Coord, nearest float64, err error) {
	if m.landmarks == nil {
		coords := m.space.Coords()
		delta := make([]float64, len(coords))
		for i, v := range m.space.Vectors() {
			delta[i] = mds.Euclidean(vec, v)
		}
		pos, _, err = mds.Place(coords, delta, mds.PlaceOptions{})
		return pos, 0, err
	}
	// Stack scratch up to 256 landmarks; append moves to the heap past it.
	var coordBuf [256]mds.Coord
	var deltaBuf [256]float64
	coords, delta := coordBuf[:0], deltaBuf[:0]
	nearest = math.Inf(1)
	for _, id := range m.landmarks {
		c, v := m.space.At(id)
		d := mds.Euclidean(vec, v)
		coords, delta = append(coords, c), append(delta, d)
		nearest = math.Min(nearest, d)
	}
	pos, _, err = mds.Place(coords, delta, mds.PlaceOptions{})
	return pos, nearest, err
}

// refreshEmbedding re-solves the full MDS problem and keeps the layout
// aligned with the previous one — unless a landmark basis stands, which
// covers every state by construction: representative vectors never move,
// so every state already sits where triangulation against its landmarks
// puts it, and a fresh solve would only redraw the landmark set and
// shuffle every coordinate. The promoted landmarks, though, were placed,
// not solved for; once they are as many as the solved ones the basis is
// re-solved, so a solve is paid for by at least LandmarkThreshold
// promotions and a poor first basis lasts one doubling.
func (m *mapStage) refreshEmbedding() error {
	if m.landmarks != nil && len(m.landmarks) < 2*m.cfg.LandmarkThreshold {
		m.refreshesSkipped++
		return nil
	}
	vectors := m.space.Vectors()
	// Solve from a Torgerson (classical-scaling) start rather than the
	// current layout: incremental placement can degenerate toward
	// low-dimensional configurations, and a warm start cannot escape them
	// (the Guttman transform preserves collinearity). The fresh solution
	// is Procrustes-aligned back onto the previous layout below, so
	// trajectories remain comparable across refreshes. Above the
	// configured threshold the full quadratic solve is replaced by
	// landmark MDS working straight off the vectors, so neither the O(n²)
	// distance matrix nor its memory is ever paid at scale.
	prev := m.space.Coords()
	var config []mds.Coord
	var stress float64
	if m.cfg.LandmarkThreshold > 0 && m.space.Len() > m.cfg.LandmarkThreshold {
		res, err := mds.LandmarkMDSVectors(vectors, m.cfg.LandmarkThreshold, mds.DefaultOptions(m.rng))
		if err != nil {
			return fmt.Errorf("core: landmark refresh: %w", err)
		}
		config, stress = res.Config, res.Stress
		m.landmarks, m.coverRadius = res.Landmarks, res.CoverRadius
	} else {
		delta, err := mds.DistanceMatrix(vectors)
		if err != nil {
			return fmt.Errorf("core: distance matrix: %w", err)
		}
		res, err := mds.SMACOF(delta, mds.DefaultOptions(m.rng))
		if err != nil {
			return fmt.Errorf("core: smacof refresh: %w", err)
		}
		config, stress = res.Config, res.Stress
	}
	aligned, err := mds.AlignTo(config, prev)
	if err != nil {
		return fmt.Errorf("core: procrustes alignment: %w", err)
	}
	if err := m.space.SetCoords(aligned); err != nil {
		return err
	}
	m.refreshes++
	m.stress = stress
	return nil
}

// importSpace adopts an externally built space (template import /
// checkpoint restore); new observations dedup against its states.
func (m *mapStage) importSpace(space *statespace.Space, ranges map[metrics.Metric]metrics.Range) error {
	if err := m.normalizer.Restore(ranges); err != nil {
		return err
	}
	// Template states within our DedupEpsilon of each other would have
	// merged had this lane observed them; reject the template rather than
	// adopt states no observation can tell apart.
	reducer := mds.NewOnlineReducer(m.cfg.DedupEpsilon)
	for _, v := range space.Vectors() {
		reducer.Observe(v)
	}
	if reducer.Len() != space.Len() {
		return fmt.Errorf("core: template states collapse under DedupEpsilon %v (%d -> %d)",
			m.cfg.DedupEpsilon, space.Len(), reducer.Len())
	}
	space.SetRangePolicy(m.cfg.RangePolicy)
	m.space = space
	// The basis belonged to the map this one replaces; the next scheduled
	// refresh solves afresh.
	m.landmarks, m.coverRadius = nil, 0
	return nil
}
