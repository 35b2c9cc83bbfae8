package stats

import (
	"fmt"
	"math"
)

// HistogramSnapshot is the serializable state of a Histogram, used by the
// crash-recovery checkpoints to persist the per-mode trajectory models.
type HistogramSnapshot struct {
	Lo       float64   `json:"lo"`
	Hi       float64   `json:"hi"`
	Counts   []float64 `json:"counts"`
	Total    float64   `json:"total"`
	Outliers int       `json:"outliers"`
}

// Snapshot captures the histogram's full state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Lo:       h.lo,
		Hi:       h.hi,
		Counts:   h.Counts(),
		Total:    h.total,
		Outliers: h.outliers,
	}
}

// Validate checks the snapshot's internal consistency: a sane range,
// finite non-negative bin weights, and a total matching their sum.
func (s HistogramSnapshot) Validate() error {
	if !(s.Lo < s.Hi) || math.IsNaN(s.Lo) || math.IsInf(s.Lo, 0) || math.IsNaN(s.Hi) || math.IsInf(s.Hi, 0) {
		return fmt.Errorf("stats: snapshot range [%v, %v] invalid", s.Lo, s.Hi)
	}
	if len(s.Counts) < 1 {
		return fmt.Errorf("stats: snapshot has no bins")
	}
	if s.Outliers < 0 {
		return fmt.Errorf("stats: snapshot outliers %d negative", s.Outliers)
	}
	var sum float64
	for i, c := range s.Counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("stats: snapshot bin %d weight %v invalid", i, c)
		}
		sum += c
	}
	// Tolerate accumulated floating-point drift but not structural skew.
	if math.Abs(sum-s.Total) > 1e-6*(1+math.Abs(sum)) {
		return fmt.Errorf("stats: snapshot total %v, bins sum to %v", s.Total, sum)
	}
	return nil
}

// HistogramFromSnapshot reconstructs a histogram. Invalid snapshots are
// rejected, never panicked on — checkpoint files come from disk and may
// be corrupt or adversarial.
func HistogramFromSnapshot(s HistogramSnapshot) (*Histogram, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	h, err := NewHistogram(s.Lo, s.Hi, len(s.Counts))
	if err != nil {
		return nil, err
	}
	copy(h.counts, s.Counts)
	h.total = s.Total
	h.outliers = s.Outliers
	return h, nil
}

// RestoreInto replaces h's contents with the snapshot's. The snapshot
// must match h's range and bin count exactly — a checkpoint taken under a
// different model configuration is incompatible, not mergeable.
func (h *Histogram) RestoreInto(s HistogramSnapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	// Configuration-identity check: bounds round-trip exactly through
	// the JSON checkpoint, and an epsilon would silently restore a
	// mismatched model.
	if s.Lo != h.lo || s.Hi != h.hi || len(s.Counts) != len(h.counts) {
		return fmt.Errorf("stats: snapshot [%v,%v]/%d incompatible with histogram [%v,%v]/%d",
			s.Lo, s.Hi, len(s.Counts), h.lo, h.hi, len(h.counts))
	}
	copy(h.counts, s.Counts)
	h.total = s.Total
	h.outliers = s.Outliers
	return nil
}
