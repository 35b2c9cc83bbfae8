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
// map it is actively controlling from, and without ever touching the
// reducer and the space out of lockstep.

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
// or joins as a new state — registered with the reducer and the space in
// lockstep, preserving the state/representative index invariant.
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
		rep, isNew := m.reducer.Observe(in.Vector)
		if !isNew {
			out.Matched++
			if in.Label == statespace.Violation.String() {
				st, err := m.space.State(rep)
				if err != nil {
					return out, err
				}
				if st.Label != statespace.Violation {
					out.Upgraded++
				}
				if err := m.space.MarkViolation(rep); err != nil {
					return out, err
				}
			}
			continue
		}
		// While a landmark basis stands an adopted state is created like an
		// organic one — placed against the basis, promoted if uncovered —
		// so the basis survives the merge. Without one it arrives at the
		// fleet's aligned coordinates.
		if m.landmarks != nil {
			if err := m.createState(rep, in.Vector, period); err != nil {
				return out, err
			}
		} else {
			if id := m.space.Add(mds.Coord{X: in.X, Y: in.Y}, in.Vector, period); id != rep {
				return out, fmt.Errorf("core: state/representative index skew during merge: %d vs %d", id, rep)
			}
			m.createdSinceSMAC++
		}
		out.Added++
		switch {
		case in.Label == statespace.Violation.String():
			if err := m.space.MarkViolation(rep); err != nil {
				return out, err
			}
		case in.Unverified:
			if err := m.space.MarkUnverified(rep); err != nil {
				return out, err
			}
		}
	}

	// A bulk adoption degrades incremental-placement quality the same way
	// a burst of organic new states would; let the periodic refresh fire
	// on the same schedule.
	if m.cfg.RefreshEvery > 0 && m.createdSinceSMAC >= m.cfg.RefreshEvery && m.space.Len() >= 3 {
		if err := m.refreshEmbedding(); err != nil {
			return out, err
		}
		m.createdSinceSMAC = 0
	}
	return out, nil
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
