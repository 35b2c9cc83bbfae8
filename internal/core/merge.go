package core

import (
	"fmt"

	"repro/internal/mds"
	"repro/internal/statespace"
)

// Mid-run fleet merge: the apply side of the streaming control plane. A
// violation learned on another host arrives as a template patch (the
// changed states of the consensus map); the lane folds it into its live
// state space between periods — without restarting, without rescaling the
// map it is actively controlling from.

// MergeStats describes what one template merge did to the live map.
type MergeStats struct {
	// Added is fleet states adopted as new local states; Upgraded is
	// existing local states whose label the fleet escalated to violation;
	// Matched is incoming states that were already known (ε-close vector)
	// and needed no label change.
	Added, Upgraded, Matched int
}

// TemplateMerger is the optional Mapper capability behind Lane.MergeTemplate:
// fold a fleet template patch into the live map at the given period.
// mapStage implements it; custom mappers that don't are simply unable to
// consume the stream mid-run (Lane.MergeTemplate reports so).
type TemplateMerger interface {
	MergeTemplate(t *statespace.Template, period int) (MergeStats, error)
}

var _ TemplateMerger = (*mapStage)(nil)

// MergeTemplate implements TemplateMerger. The patch's vectors are
// rescaled from its normalization ranges into the lane's (values beyond
// the local range land above 1 — they describe loads this host has not
// seen, and still compare correctly), its coordinates Procrustes-aligned
// onto the live layout, and each state either folds into an ε-matching
// local state (upgrading its label when the fleet saw a violation there)
// or joins as a new state. New states count toward the scheduled refresh;
// when it falls due on a merge that added at least LandmarkThreshold states
// to a map with no landmark basis, the fleet's layout becomes the map's
// (adoptLayout) rather than being re-solved.
func (m *mapStage) MergeTemplate(t *statespace.Template, period int) (MergeStats, error) {
	var out MergeStats
	if err := t.Validate(); err != nil {
		return out, err
	}
	if err := t.CompatibleWith(m.schema); err != nil {
		return out, fmt.Errorf("core: template merge: %w", err)
	}
	// The alignment ε doubles as the Procrustes correspondence radius; it
	// must be positive even when local dedup is disabled.
	alignEps := m.cfg.DedupEpsilon
	if alignEps <= 0 {
		alignEps = 0.05
	}
	base := statespace.Export(m.space, t.SensitiveApp, m.normalizer.Snapshot(), m.schema)
	aligned, err := statespace.AlignStates(base, t, alignEps)
	if err != nil {
		return out, fmt.Errorf("core: template merge: %w", err)
	}

	for _, in := range aligned {
		if id, ok := m.space.FirstWithin(in.Vector, m.cfg.DedupEpsilon); ok {
			out.Matched++
			if in.Label == statespace.Violation.String() {
				st, err := m.space.State(id)
				if err != nil {
					return out, err
				}
				if st.Label != statespace.Violation {
					out.Upgraded++
				}
				if err := m.space.MarkViolation(id); err != nil {
					return out, err
				}
			}
			continue
		}
		// While a landmark basis stands an adopted state is created like an
		// organic one — placed against the basis, promoted if uncovered —
		// so the basis survives the merge. Without one it arrives at the
		// fleet's aligned coordinates, which a bulk merge keeps.
		var id int
		if m.landmarks != nil {
			var err error
			if id, err = m.createState(in.Vector, period); err != nil {
				return out, err
			}
		} else {
			id = m.space.Add(mds.Coord{X: in.X, Y: in.Y}, in.Vector, period)
			m.createdSinceSMAC++
		}
		out.Added++
		switch {
		case in.Label == statespace.Violation.String():
			if err := m.space.MarkViolation(id); err != nil {
				return out, err
			}
		case in.Unverified:
			if err := m.space.MarkUnverified(id); err != nil {
				return out, err
			}
		}
	}

	// Adopted states count toward the periodic refresh like organic ones.
	// When the refresh falls due on a bulk adoption into a map with no
	// basis, the fleet's solved layout is kept instead of re-solved.
	if m.cfg.RefreshEvery > 0 && m.createdSinceSMAC >= m.cfg.RefreshEvery && m.space.Len() >= 3 {
		var err error
		if m.landmarks == nil && m.cfg.LandmarkThreshold > 0 && out.Added >= m.cfg.LandmarkThreshold {
			err = m.adoptLayout(m.space.Len() - out.Added)
		} else {
			err = m.refreshEmbedding()
		}
		if err != nil {
			return out, err
		}
		m.createdSinceSMAC = 0
	}
	return out, nil
}

// adoptLayout keeps the layout a bulk merge brought: the states from ID
// first on sit at the fleet's solved coordinates, aligned onto the lane's,
// and a landmark solve over the whole map would only redraw that solve —
// worse, measured, than the fleet drew it. The basis is picked from them by
// the farthest-point selection a landmark solve starts with; the lane's own
// states are re-placed against it, as that solve would have placed them;
// the covering radius spans every state; and the recorded stress is the
// adopted landmark sub-problem's.
func (m *mapStage) adoptLayout(first int) error {
	vectors, coords := m.space.Vectors(), m.space.Coords()
	k := m.cfg.LandmarkThreshold
	landmarks, cover, dists := mds.MaxminLandmarks(vectors[first:], k, m.rng)
	sub, err := mds.NewMatrix(len(landmarks))
	if err != nil {
		return err
	}
	basis := make([]mds.Coord, len(landmarks))
	for i, l := range landmarks {
		basis[i] = coords[first+l]
		for j := i + 1; j < len(landmarks); j++ {
			sub.Set(i, j, dists[l*k+j])
		}
		landmarks[i] += first
	}
	m.landmarks, m.stress = landmarks, mds.Stress1(sub, basis)
	for id := range first {
		pos, nearest, err := m.place(vectors[id])
		if err != nil {
			return fmt.Errorf("core: re-placing state %d: %w", id, err)
		}
		coords[id], cover = pos, max(cover, nearest)
	}
	m.coverRadius = cover
	return m.space.SetCoords(coords)
}

// MergeTemplate folds a fleet template (or delta patch) into the lane's
// live map. Unlike ImportTemplate it is legal at any period: labels are
// sticky and merging only ever adds states or escalates labels, so the
// control loop's invariants survive. Callers invoke it between periods
// (the lane is single-threaded).
func (l *Lane) MergeTemplate(t *statespace.Template) (MergeStats, error) {
	mm, ok := l.mapper.(TemplateMerger)
	if !ok {
		return MergeStats{}, fmt.Errorf("core: mapper %T cannot merge templates mid-run", l.mapper)
	}
	return mm.MergeTemplate(t, l.period)
}

// MergeTemplate folds a fleet template into the runtime's live map; see
// Lane.MergeTemplate.
func (r *Runtime) MergeTemplate(t *statespace.Template) (MergeStats, error) {
	return r.lane.MergeTemplate(t)
}
