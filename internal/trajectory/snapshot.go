package trajectory

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// ModelSnapshot is the serializable state of one per-mode trajectory
// model: the two histograms, the recent-step ring, and the observation
// count. It is what the crash-recovery checkpoint persists so a restarted
// daemon predicts from the same learned (d, α) distributions instead of
// relearning them.
type ModelSnapshot struct {
	Distance stats.HistogramSnapshot `json:"distance"`
	Angle    stats.HistogramSnapshot `json:"angle"`
	Recent   []Step                  `json:"recent,omitempty"`
	Count    int                     `json:"count"`
}

// ModelsSnapshot captures every mode's model.
type ModelsSnapshot struct {
	SingleModel bool            `json:"single_model,omitempty"`
	Models      []ModelSnapshot `json:"models"`
}

// Snapshot captures the model's full state.
func (m *Model) Snapshot() ModelSnapshot {
	return ModelSnapshot{
		Distance: m.distHist.Snapshot(),
		Angle:    m.angleHist.Snapshot(),
		Recent:   m.Recent(),
		Count:    m.count,
	}
}

// Restore replaces the model's state with the snapshot's. The snapshot's
// histograms must match the model's configuration (range and bin count);
// the recent ring is clamped to the configured window. Invalid snapshots
// are rejected without modifying the model.
func (m *Model) Restore(s ModelSnapshot) error {
	if s.Count < 0 || s.Count < len(s.Recent) {
		return fmt.Errorf("trajectory: snapshot count %d inconsistent with %d recent steps",
			s.Count, len(s.Recent))
	}
	for i, st := range s.Recent {
		if st.Distance < 0 || math.IsNaN(st.Distance) || math.IsInf(st.Distance, 0) ||
			math.IsNaN(st.Angle) || math.IsInf(st.Angle, 0) {
			return fmt.Errorf("trajectory: snapshot recent step %d invalid (%v, %v)",
				i, st.Distance, st.Angle)
		}
	}
	dh, err := stats.HistogramFromSnapshot(s.Distance)
	if err != nil {
		return fmt.Errorf("trajectory: snapshot distance histogram: %w", err)
	}
	ah, err := stats.HistogramFromSnapshot(s.Angle)
	if err != nil {
		return fmt.Errorf("trajectory: snapshot angle histogram: %w", err)
	}
	// Configuration-identity check: MaxStep round-trips exactly through
	// the checkpoint, and an epsilon would silently accept a model
	// trained under different bounds.
	if lo, hi := dh.Range(); lo != 0 || hi != m.cfg.MaxStep || dh.Bins() != m.cfg.DistanceBins {
		return fmt.Errorf("trajectory: snapshot distance histogram [%v,%v]/%d incompatible with config [0,%v]/%d",
			lo, hi, dh.Bins(), m.cfg.MaxStep, m.cfg.DistanceBins)
	}
	if ah.Bins() != m.cfg.AngleBins {
		return fmt.Errorf("trajectory: snapshot angle histogram has %d bins, config %d",
			ah.Bins(), m.cfg.AngleBins)
	}
	recent := s.Recent
	if len(recent) > m.cfg.Window {
		recent = recent[len(recent)-m.cfg.Window:]
	}
	m.distHist = dh
	m.angleHist = ah
	m.recent = append([]Step(nil), recent...)
	m.count = s.Count
	return nil
}

// Snapshot captures all per-mode models.
func (mm *ModeModels) Snapshot() *ModelsSnapshot {
	s := &ModelsSnapshot{SingleModel: mm.singleModel}
	for _, m := range mm.models {
		s.Models = append(s.Models, m.Snapshot())
	}
	return s
}

// Restore replaces every mode's model with the snapshot's. The snapshot
// must carry one model per mode and match the single-model setting — a
// checkpoint taken under the ablation configuration would route
// observations differently and silently skew predictions.
func (mm *ModeModels) Restore(s *ModelsSnapshot) error {
	if s == nil {
		return fmt.Errorf("trajectory: nil models snapshot")
	}
	if len(s.Models) != NumModes {
		return fmt.Errorf("trajectory: snapshot has %d models, want %d", len(s.Models), NumModes)
	}
	if s.SingleModel != mm.singleModel {
		return fmt.Errorf("trajectory: snapshot single-model=%v, runtime %v", s.SingleModel, mm.singleModel)
	}
	// Validate all before mutating any, so a half-corrupt snapshot cannot
	// leave the models mixed between old and new state.
	fresh := make([]*Model, NumModes)
	for i, ms := range s.Models {
		m, err := NewModel(mm.cfg)
		if err != nil {
			return err
		}
		if err := m.Restore(ms); err != nil {
			return fmt.Errorf("trajectory: mode %d: %w", i, err)
		}
		fresh[i] = m
	}
	copy(mm.models[:], fresh)
	return nil
}
