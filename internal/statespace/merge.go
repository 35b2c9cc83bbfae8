package statespace

import (
	"fmt"

	"repro/internal/mds"
	"repro/internal/metrics"
)

// Template merging. Two executions of the same sensitive application learn
// maps of the same underlying state space, but their MDS embeddings differ
// by an arbitrary similarity transform (rotation, reflection, scale,
// translation — MDS solutions are only unique up to those), and adaptive
// normalization ranges may have stretched differently. Merging therefore:
//
//  1. widens both templates onto the union of their normalization ranges,
//     rescaling state vectors so they stay comparable;
//  2. Procrustes-aligns the incoming coordinates onto the base layout,
//     using vector-nearest state pairs as correspondences;
//  3. dedupes the combined state set: ε-close vectors collapse into one
//     consensus state whose weight accumulates and whose label is
//     Violation if either contributor saw a violation there.
//
// The result keeps every violation-state either contributor has suffered,
// which is the whole point of sharing: the next execution bootstraps from
// the union of the fleet's bad experiences. The machinery lives here (not
// in the registry) because both sides of the fleet control plane need it:
// the registry merges whole uploads into the consensus map, and a running
// host applies streamed deltas onto its live map with the same alignment.

// MergeTemplates merges incoming into base and returns a new consensus
// template; neither input is mutated. Both templates must describe the
// same sensitive application under the same metric schema. eps is the
// vector distance under which states from the two templates collapse into
// one consensus state; it must be positive.
func MergeTemplates(base, incoming *Template, eps float64) (*Template, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("statespace: merge epsilon %v must be positive", eps)
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("statespace: base template: %w", err)
	}
	if err := incoming.Validate(); err != nil {
		return nil, fmt.Errorf("statespace: incoming template: %w", err)
	}
	if base.SensitiveApp != incoming.SensitiveApp {
		return nil, fmt.Errorf("statespace: merging templates for different apps %q and %q",
			base.SensitiveApp, incoming.SensitiveApp)
	}
	if base.SchemaKey() != incoming.SchemaKey() {
		return nil, fmt.Errorf("statespace: merging templates with schemas %q and %q: %w",
			base.SchemaKey(), incoming.SchemaKey(), ErrSchemaMismatch)
	}

	merged := &Template{
		Version:       base.Version,
		SensitiveApp:  base.SensitiveApp,
		Dim:           base.Dim,
		SchemaVMs:     append([]string(nil), base.SchemaVMs...),
		SchemaMetrics: append([]metrics.Metric(nil), base.SchemaMetrics...),
	}
	if incoming.Version > merged.Version {
		merged.Version = incoming.Version
	}

	ranges, err := MergeRanges(base, incoming)
	if err != nil {
		return nil, err
	}
	merged.Ranges = ranges
	baseStates := RescaleStates(base, ranges)
	inStates := RescaleStates(incoming, ranges)

	inStates, err = alignOnto(baseStates, inStates, eps)
	if err != nil {
		return nil, err
	}

	merged.States = DedupeStates(append(baseStates, inStates...), eps)
	if merged.Dim == 0 {
		merged.Dim = incoming.Dim
	}
	return merged, nil
}

// AlignStates maps incoming's states into base's frame without touching
// base's normalization ranges: vectors are rescaled from incoming.Ranges
// into base.Ranges (values the base has never seen may land above 1 — they
// describe loads beyond this execution's observed range and still compare
// correctly), and coordinates are Procrustes-aligned onto base's layout
// using ε-close vector pairs as correspondences. This is the apply side of
// delta sync: a running host folds streamed fleet states into its live map
// without rescaling the map it is actively controlling from.
func AlignStates(base, incoming *Template, eps float64) ([]TemplateState, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("statespace: align epsilon %v must be positive", eps)
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("statespace: align base: %w", err)
	}
	if err := incoming.Validate(); err != nil {
		return nil, fmt.Errorf("statespace: align incoming: %w", err)
	}
	if base.SchemaKey() != incoming.SchemaKey() {
		return nil, fmt.Errorf("statespace: aligning templates with schemas %q and %q: %w",
			base.SchemaKey(), incoming.SchemaKey(), ErrSchemaMismatch)
	}
	inStates := RescaleStates(incoming, base.Ranges)
	return alignOnto(base.States, inStates, eps)
}

// alignOnto Procrustes-aligns inStates' coordinates onto the base layout
// using vector-nearest pairs as correspondences. With no confident pairs
// the transform degrades to identity, which is still safe: downstream
// dedup matches on vectors, not coordinates. inStates is returned with
// coordinates rewritten (the slice is owned by the caller).
func alignOnto(baseStates, inStates []TemplateState, eps float64) ([]TemplateState, error) {
	var src, dst []mds.Coord
	for _, in := range inStates {
		j, d := NearestStateByVector(baseStates, in.Vector)
		if j >= 0 && d <= eps {
			src = append(src, mds.Coord{X: in.X, Y: in.Y})
			dst = append(dst, mds.Coord{X: baseStates[j].X, Y: baseStates[j].Y})
		}
	}
	if len(src) > 0 && len(inStates) > 0 {
		tr, _, err := mds.Procrustes(src, dst)
		if err != nil {
			return nil, fmt.Errorf("statespace: aligning templates: %w", err)
		}
		for i := range inStates {
			p := tr.Apply(mds.Coord{X: inStates[i].X, Y: inStates[i].Y})
			inStates[i].X, inStates[i].Y = p.X, p.Y
		}
	}
	return inStates, nil
}

// DedupeStates greedily collapses ε-close (by vector) states into one
// consensus state: earlier states seed the representative set so an
// established fleet map stays stable; later states either fold into a
// representative — accumulating weight, upgrading the label to Violation
// if either contributor saw one — or join as new states.
func DedupeStates(states []TemplateState, eps float64) []TemplateState {
	var reps []TemplateState
	for _, st := range states {
		j, d := NearestStateByVector(reps, st.Vector)
		if j >= 0 && d <= eps {
			reps[j].Weight += st.Weight
			if st.Label == Violation.String() {
				reps[j].Label = st.Label
			}
			continue
		}
		reps = append(reps, st)
	}
	return reps
}

// MergeRanges unions the two templates' normalization ranges, taking the
// wider max per metric. Templates without schema information (version 1)
// cannot be rescaled, so their ranges must match exactly.
func MergeRanges(base, incoming *Template) (map[metrics.Metric]metrics.Range, error) {
	legacy := len(base.SchemaMetrics) == 0 || len(incoming.SchemaMetrics) == 0
	out := make(map[metrics.Metric]metrics.Range, len(base.Ranges))
	for m, r := range base.Ranges {
		out[m] = r
	}
	for m, r := range incoming.Ranges {
		cur, ok := out[m]
		if !ok {
			out[m] = r
			continue
		}
		// Schema-less templates cannot be rescaled, so only
		// byte-identical range maxima are mergeable — exact equality
		// is the requirement, not a rounding accident.
		if legacy && (cur.Max != r.Max || cur.Adaptive != r.Adaptive) {
			return nil, fmt.Errorf("statespace: schema-less templates with differing range for %q (%v vs %v) cannot merge",
				m, cur, r)
		}
		if r.Max > cur.Max {
			cur.Max = r.Max
		}
		cur.Adaptive = cur.Adaptive || r.Adaptive
		out[m] = cur
	}
	return out, nil
}

// RescaleStates returns copies of t's states with vectors re-normalized
// from t.Ranges into the given ranges: a value that meant "x of oldMax"
// becomes "x·oldMax/newMax of newMax". Coordinates are left untouched —
// they are an embedding of the old distances and get re-solved by the next
// embedding refresh anyway.
func RescaleStates(t *Template, ranges map[metrics.Metric]metrics.Range) []TemplateState {
	nm := len(t.SchemaMetrics)
	out := make([]TemplateState, len(t.States))
	for i, st := range t.States {
		cp := st
		cp.Vector = append([]float64(nil), st.Vector...)
		if nm > 0 {
			for d := range cp.Vector {
				m := t.SchemaMetrics[d%nm]
				oldR, okOld := t.Ranges[m]
				newR, okNew := ranges[m]
				// Equal maxima mean a scale factor of
				// exactly 1; skipping the multiply keeps
				// unchanged vectors byte-identical, which
				// the delta tracker relies on.
				if okOld && okNew && oldR.Max > 0 && newR.Max > 0 && oldR.Max != newR.Max {
					cp.Vector[d] *= oldR.Max / newR.Max
				}
			}
		}
		out[i] = cp
	}
	return out
}

// CloneTemplate deep-copies a template so stored consensus maps never
// alias caller-owned memory.
func CloneTemplate(t *Template) *Template {
	cp := *t
	cp.SchemaVMs = append([]string(nil), t.SchemaVMs...)
	cp.SchemaMetrics = append([]metrics.Metric(nil), t.SchemaMetrics...)
	cp.States = make([]TemplateState, len(t.States))
	for i, st := range t.States {
		cp.States[i] = st
		cp.States[i].Vector = append([]float64(nil), st.Vector...)
	}
	cp.Ranges = make(map[metrics.Metric]metrics.Range, len(t.Ranges))
	for m, r := range t.Ranges {
		cp.Ranges[m] = r
	}
	return &cp
}

// NearestStateByVector returns the index and vector distance of the state
// in states whose vector is closest to vec, or (-1, 0) when states is
// empty or no state shares vec's dimension.
func NearestStateByVector(states []TemplateState, vec []float64) (int, float64) {
	best, bestD := -1, 0.0
	for i, st := range states {
		if len(st.Vector) != len(vec) {
			continue
		}
		d := mds.Euclidean(st.Vector, vec)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
