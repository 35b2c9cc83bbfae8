package statespace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/mds"
	"repro/internal/metrics"
)

// Template properties (§6): "the violation-states in the generated map from
// a previous execution can be used as a starting point and is a valid map
// for a new execution with a different batch application." A template
// captures the states, their labels, and the normalization ranges they were
// measured under — without matching ranges the vectors of the new run would
// not be comparable to the template's.

// templateVersion is the current template format version. Version 1
// templates (no schema fields) are still accepted; anything newer than the
// current version is rejected.
const templateVersion = 2

// Sentinel errors for template validation, matchable with errors.Is.
var (
	// ErrTemplateVersion marks a template from an unknown (newer or
	// nonsensical) format version.
	ErrTemplateVersion = errors.New("unsupported template version")
	// ErrSchemaMismatch marks a template whose metric schema does not
	// match the importer's measurement schema — its vectors would be
	// incomparable with locally collected ones.
	ErrSchemaMismatch = errors.New("template metric-schema mismatch")
	// ErrCorruptTemplate marks JSON that parsed but fails structural
	// validation (negative dimensions, non-finite vectors, …).
	ErrCorruptTemplate = errors.New("corrupt template")
)

// Template is the serializable snapshot of a learned state space.
type Template struct {
	// Version is the template format version.
	Version int `json:"version"`
	// SensitiveApp names the latency-sensitive application the map
	// characterizes. Templates are only valid across runs of the same
	// sensitive application (§6).
	SensitiveApp string `json:"sensitive_app"`
	// Dim is the measurement-vector dimension.
	Dim int `json:"dim"`
	// SchemaVMs and SchemaMetrics record the (VM, metric) flattening
	// schema the vectors were produced under: Dim = len(SchemaVMs) ×
	// len(SchemaMetrics), metrics varying fastest. Version-1 templates
	// predate these fields and carry only Dim.
	SchemaVMs     []string         `json:"schema_vms,omitempty"`
	SchemaMetrics []metrics.Metric `json:"schema_metrics,omitempty"`
	// States carries every learned state.
	States []TemplateState `json:"states"`
	// Ranges carries the normalizer snapshot the vectors were scaled with.
	Ranges map[metrics.Metric]metrics.Range `json:"ranges"`
}

// TemplateState is one serialized state.
type TemplateState struct {
	X      float64   `json:"x"`
	Y      float64   `json:"y"`
	Label  string    `json:"label"`
	Weight int       `json:"weight"`
	Vector []float64 `json:"vector"`
	// Unverified preserves the stale-QoS flag across checkpoint
	// round-trips: a state whose safety was never confirmed must not come
	// back from a restart as a verified safe-state anchor. Absent (false)
	// in templates from before the flag existed.
	Unverified bool `json:"unverified,omitempty"`
}

// Export captures the space into a template. schema, when non-nil, records
// the (VM, metric) flattening layout so importers can reject templates
// measured under a different schema.
func Export(s *Space, sensitiveApp string, ranges map[metrics.Metric]metrics.Range, schema *metrics.Schema) *Template {
	t := &Template{
		Version:      templateVersion,
		SensitiveApp: sensitiveApp,
		Ranges:       ranges,
	}
	if schema != nil {
		t.SchemaVMs = schema.VMs()
		t.SchemaMetrics = schema.Metrics()
		t.Dim = schema.Dim()
	}
	for _, st := range s.States() {
		if t.Dim == 0 {
			t.Dim = len(st.Vector)
		}
		t.States = append(t.States, TemplateState{
			X:          st.Coord.X,
			Y:          st.Coord.Y,
			Label:      st.Label.String(),
			Weight:     st.Weight,
			Vector:     st.Vector,
			Unverified: st.Unverified,
		})
	}
	return t
}

// Validate checks the template's internal consistency: a known version, a
// schema whose product matches Dim, and finite state vectors of the right
// dimension. Import and ReadTemplate both call it.
func (t *Template) Validate() error {
	if t == nil {
		return fmt.Errorf("statespace: nil template")
	}
	if t.Version < 1 || t.Version > templateVersion {
		return fmt.Errorf("statespace: template version %d, support 1..%d: %w",
			t.Version, templateVersion, ErrTemplateVersion)
	}
	if t.Dim < 0 {
		return fmt.Errorf("statespace: template dim %d: %w", t.Dim, ErrCorruptTemplate)
	}
	if len(t.SchemaVMs) > 0 || len(t.SchemaMetrics) > 0 {
		if len(t.SchemaVMs) == 0 || len(t.SchemaMetrics) == 0 {
			return fmt.Errorf("statespace: template schema incomplete (%d VMs, %d metrics): %w",
				len(t.SchemaVMs), len(t.SchemaMetrics), ErrCorruptTemplate)
		}
		if got := len(t.SchemaVMs) * len(t.SchemaMetrics); t.Dim != got {
			return fmt.Errorf("statespace: template dim %d, schema implies %d: %w",
				t.Dim, got, ErrCorruptTemplate)
		}
		seen := make(map[metrics.Metric]bool, len(t.SchemaMetrics))
		for _, m := range t.SchemaMetrics {
			if m == "" || seen[m] {
				return fmt.Errorf("statespace: template schema metric %q empty or duplicated: %w",
					m, ErrCorruptTemplate)
			}
			seen[m] = true
		}
	}
	for i, ts := range t.States {
		if t.Dim > 0 && len(ts.Vector) != t.Dim {
			return fmt.Errorf("statespace: template state %d has dim %d, want %d: %w",
				i, len(ts.Vector), t.Dim, ErrCorruptTemplate)
		}
		if ts.Weight < 0 {
			return fmt.Errorf("statespace: template state %d has negative weight %d: %w",
				i, ts.Weight, ErrCorruptTemplate)
		}
		for j, v := range ts.Vector {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("statespace: template state %d vector[%d] = %v: %w",
					i, j, v, ErrCorruptTemplate)
			}
		}
		if math.IsNaN(ts.X) || math.IsInf(ts.X, 0) || math.IsNaN(ts.Y) || math.IsInf(ts.Y, 0) {
			return fmt.Errorf("statespace: template state %d has non-finite coordinates: %w",
				i, ErrCorruptTemplate)
		}
	}
	for m, r := range t.Ranges {
		if math.IsNaN(r.Max) || math.IsInf(r.Max, 0) || r.Max < 0 {
			return fmt.Errorf("statespace: template range for %q has invalid max %v: %w",
				m, r.Max, ErrCorruptTemplate)
		}
	}
	return nil
}

// CompatibleWith reports (as an error wrapping ErrSchemaMismatch) whether
// the template's vectors are comparable with measurements flattened under
// the given schema: same metric set in the same order and the same VM-slot
// count. VM *names* are deliberately not compared — hosts name their
// sensitive/batch slots differently while the positional roles match.
// Version-1 templates carry no schema, so only the dimension is checked.
func (t *Template) CompatibleWith(schema *metrics.Schema) error {
	if schema == nil {
		return fmt.Errorf("statespace: nil schema")
	}
	if len(t.SchemaMetrics) == 0 {
		if t.Dim != 0 && t.Dim != schema.Dim() {
			return fmt.Errorf("statespace: template dim %d, local schema dim %d: %w",
				t.Dim, schema.Dim(), ErrSchemaMismatch)
		}
		return nil
	}
	ms := schema.Metrics()
	if len(ms) != len(t.SchemaMetrics) {
		return fmt.Errorf("statespace: template has %d metrics %v, local schema %d %v: %w",
			len(t.SchemaMetrics), t.SchemaMetrics, len(ms), ms, ErrSchemaMismatch)
	}
	for i, m := range ms {
		if t.SchemaMetrics[i] != m {
			return fmt.Errorf("statespace: template metric[%d] = %q, local schema %q: %w",
				i, t.SchemaMetrics[i], m, ErrSchemaMismatch)
		}
	}
	if len(t.SchemaVMs) != len(schema.VMs()) {
		return fmt.Errorf("statespace: template has %d VM slots, local schema %d: %w",
			len(t.SchemaVMs), len(schema.VMs()), ErrSchemaMismatch)
	}
	return nil
}

// SchemaKey returns a stable fingerprint of the flattening schema, used by
// the fleet registry to key templates per (sensitive app, schema) so maps
// measured under different metric sets never merge. Version-1 templates
// degrade to a dimension-only key.
func (t *Template) SchemaKey() string {
	if len(t.SchemaMetrics) == 0 {
		return fmt.Sprintf("dim%d", t.Dim)
	}
	parts := make([]string, len(t.SchemaMetrics))
	for i, m := range t.SchemaMetrics {
		parts[i] = string(m)
	}
	return fmt.Sprintf("%dvm/%s", len(t.SchemaVMs), strings.Join(parts, ","))
}

// Import reconstructs a state space from a template. The returned space
// contains every template state with weight and label preserved; periods
// are reset to 0 (they belong to the old execution's timeline). Templates
// from unknown versions or with inconsistent schemas are rejected with
// errors wrapping ErrTemplateVersion / ErrCorruptTemplate.
func Import(t *Template) (*Space, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	s := NewSpace()
	for i, ts := range t.States {
		id := s.Add(mds.Coord{X: ts.X, Y: ts.Y}, ts.Vector, 0)
		s.states[id].Weight = ts.Weight
		switch ts.Label {
		case Safe.String():
			if ts.Unverified {
				if err := s.MarkUnverified(id); err != nil {
					return nil, err
				}
			}
		case Violation.String():
			if err := s.MarkViolation(id); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("statespace: template state %d has unknown label %q: %w",
				i, ts.Label, ErrCorruptTemplate)
		}
	}
	return s, nil
}

// WriteTo serializes the template as indented JSON.
func (t *Template) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("statespace: marshal template: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadTemplate parses and validates a template from JSON. Truncated input
// surfaces as a wrapped io.ErrUnexpectedEOF, trailing garbage after the
// template object is rejected, and structurally invalid templates (wrong
// version, inconsistent schema, non-finite vectors) fail Validate rather
// than corrupting a later Import.
func ReadTemplate(r io.Reader) (*Template, error) {
	var t Template
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		if errors.Is(err, io.EOF) {
			// Empty input and input cut off mid-object both surface as the
			// same matchable truncation error.
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("statespace: decode template: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("statespace: trailing data after template: %w", ErrCorruptTemplate)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
