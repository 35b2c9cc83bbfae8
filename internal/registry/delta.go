package registry

import (
	"repro/internal/metrics"
	"repro/internal/statespace"
)

// Delta sync. Every accepted Put tags the states it changed with the new
// revision (Entry.StateRevs); DeltaSince then answers "what changed after
// revision N" with a patch template carrying only those states, instead of
// the whole consensus map. A fleet of hosts polling (or streaming) an
// actively merged map transfers bytes proportional to the change rate, not
// to the map size times the fleet size.

// trackRevisions fills next.StateRevs and next.RangesRev given the entry
// the Put replaced (prev may be nil for a first Put).
//
// It relies on a structural invariant of the merge: MergeTemplates dedupes
// with the base states seeding the representative set in order, and
// unchanged ranges leave base vectors byte-identical — so when the ranges
// did not widen, next.Template.States is prev.Template.States (possibly
// with upgraded labels and accumulated weights) followed by genuinely new
// states. The prefix is verified vector-by-vector; any mismatch falls back
// to "changed at this revision", which costs bytes, never correctness.
func trackRevisions(prev, next *Entry) {
	rev := next.Revision
	states := next.Template.States
	next.StateRevs = make([]int, len(states))
	if prev == nil || !rangesEqual(prev.Template.Ranges, next.Template.Ranges) {
		// First Put, or the normalization ranges widened and every vector
		// was rescaled: everything changed now.
		for i := range next.StateRevs {
			next.StateRevs[i] = rev
		}
		next.RangesRev = rev
		return
	}
	next.RangesRev = prev.RangesRev
	old := prev.Template.States
	for i, st := range states {
		if i < len(old) && i < len(prev.StateRevs) &&
			st.Label == old[i].Label && vectorsEqual(st.Vector, old[i].Vector) {
			next.StateRevs[i] = prev.StateRevs[i]
			continue
		}
		next.StateRevs[i] = rev
	}
}

// rangesEqual reports exact equality of two range maps. Exact float
// comparison is deliberate: a merge either copies a range bit-for-bit or
// widens it, so any difference is a real widening that rescaled vectors.
func rangesEqual(a, b map[metrics.Metric]metrics.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for m, ra := range a {
		rb, ok := b[m]
		if !ok || ra != rb {
			return false
		}
	}
	return true
}

// vectorsEqual reports exact (bitwise) equality; unchanged states keep
// byte-identical vectors across merges, so this is a prefix check, not a
// numeric tolerance.
func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryDelta builds the delta from revision since to the entry's current
// state. It must be called with the entry's contents consistent (the
// registry lock held, or on a private clone). A since that is unusable —
// zero or negative, ahead of the store, predating the last range rescale,
// or predating the version vector (corrupt/legacy entries are sanitized to
// "all changed at current revision") — yields a Full delta.
func entryDelta(e *Entry, since int) *statespace.TemplateDelta {
	full := since <= 0 || since > e.Revision ||
		since < e.RangesRev || len(e.StateRevs) != len(e.Template.States)
	if full {
		return &statespace.TemplateDelta{
			FromRevision: 0,
			ToRevision:   e.Revision,
			Full:         true,
			Patch:        statespace.CloneTemplate(e.Template),
		}
	}
	patch := statespace.CloneTemplate(e.Template)
	changed := patch.States[:0]
	for i, st := range patch.States {
		if e.StateRevs[i] > since {
			changed = append(changed, st)
		}
	}
	patch.States = changed
	return &statespace.TemplateDelta{
		FromRevision: since,
		ToRevision:   e.Revision,
		Patch:        patch,
	}
}

// DeltaSince returns the changes to app's consensus template after
// revision since, or (nil, false) when the registry holds no entry for
// app. schema narrows to an exact (app, schema) key; when empty, the most
// recently updated entry for the app wins (matching Get). since <= 0, a
// since ahead of the store, or one predating the last range rescale yields
// a Full delta — the client must replace, not merge. since equal to the
// current revision yields an empty delta (the cheap "you are current"
// reply).
func (r *Registry) DeltaSince(app, schema string, since int) (*statespace.TemplateDelta, bool) {
	s := r.shardOf(app)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.lookupLocked(app, schema)
	if e == nil {
		return nil, false
	}
	return entryDelta(e, since), true
}

// lookupLocked finds the entry Get would return; callers hold s.mu.
func (s *shard) lookupLocked(app, schema string) *Entry {
	if schema != "" {
		return s.entries[Key{App: app, Schema: schema}]
	}
	var best *Entry
	for _, e := range s.entries {
		if e.Key.App != app {
			continue
		}
		if best == nil || e.UpdatedAt.After(best.UpdatedAt) ||
			(e.UpdatedAt.Equal(best.UpdatedAt) && e.Revision > best.Revision) {
			best = e
		}
	}
	return best
}
