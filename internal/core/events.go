package core

import (
	"fmt"

	"repro/internal/mds"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// Event records everything the runtime did in one monitoring period. The
// experiment harness renders figures from these.
type Event struct {
	// Period is the monitoring period index.
	Period int
	// App is the fleet-wide name of the sensitive application whose lane
	// produced the event (empty only in zero-value events).
	App string
	// Mode is the detected execution mode.
	Mode trajectory.Mode
	// StateID is the mapped state this period's vector landed on.
	StateID int
	// NewState marks a freshly created representative.
	NewState bool
	// Coord is the state's position in the mapped space.
	Coord mds.Coord
	// Violation marks an application-reported QoS violation.
	Violation bool
	// QoSStale marks periods where the application's QoS signal has been
	// silent for at least Config.QoSStaleAfter periods — "no violation"
	// then means "no evidence", not "safe".
	QoSStale bool
	// Predicted marks a predicted transition toward a violation.
	Predicted bool
	// Severity is the trajectory vote's violation proximity in [0,1]
	// (predictor hits over candidates) — the graded policy's input.
	Severity float64
	// Action is what the throttle controller did.
	Action throttle.Action
	// Throttled is the batch state after the action.
	Throttled bool
	// RandomResume marks anti-starvation resumes.
	RandomResume bool
	// Beta is the controller's threshold after the period.
	Beta float64
	// Level is the batch CPU allowance after the period: 1 unlimited,
	// 0 frozen, intermediate values are graded cpu.max quotas.
	Level float64
}

// String renders a compact single-line summary, e.g. for the daemon log.
func (e Event) String() string {
	flags := ""
	if e.NewState {
		flags += "N"
	}
	if e.Violation {
		flags += "V"
	}
	if e.Predicted {
		flags += "P"
	}
	if e.Throttled {
		flags += "T"
	}
	if e.QoSStale {
		flags += "S"
	}
	if flags == "" {
		flags = "-"
	}
	return fmt.Sprintf("p=%d mode=%s state=%d (%.3f,%.3f) %s action=%s",
		e.Period, e.Mode, e.StateID, e.Coord.X, e.Coord.Y, flags, e.Action)
}

// Report aggregates a run's counters.
type Report struct {
	// Periods processed.
	Periods int
	// Violations reported by the sensitive application.
	Violations int
	// PredictedViolations is how many periods predicted an impending
	// violation.
	PredictedViolations int
	// Pauses, Resumes and RandomResumes count actuations; Limits counts
	// graded quota adjustments (ActionLimit).
	Pauses        int
	Resumes       int
	RandomResumes int
	Limits        int
	// QoSStalePeriods counts periods spent with a stale QoS signal (no
	// fresh application report for Config.QoSStaleAfter periods or more).
	QoSStalePeriods int
	// UnverifiedStates counts states first observed under a stale QoS
	// signal and never yet verified by a fresh-signal revisit.
	UnverifiedStates int
	// States and ViolationStates describe the learned space.
	States          int
	ViolationStates int
	// Refreshes counts embeddings actually re-solved (SMACOF, or landmark
	// MDS above Config.LandmarkThreshold); LastStress is the stress-1 of
	// the most recent one. RefreshesSkipped counts scheduled refreshes
	// the retained landmark basis made unnecessary. Landmarks is that
	// basis's size — solved plus promoted since — and 0 with no basis.
	Refreshes        int
	RefreshesSkipped int
	Landmarks        int
	LastStress       float64
	// Accuracy, Precision and Recall score one-period-ahead violation
	// prediction against reported outcomes.
	Accuracy  float64
	Precision float64
	Recall    float64
}

// String renders a multi-line report.
func (r Report) String() string {
	return fmt.Sprintf(
		"periods=%d violations=%d predicted=%d pauses=%d limits=%d resumes=%d (random=%d)\n"+
			"states=%d (violation=%d, unverified=%d) refreshes=%d (skipped=%d) landmarks=%d stress=%.4f qos_stale=%d\n"+
			"prediction: accuracy=%.3f precision=%.3f recall=%.3f",
		r.Periods, r.Violations, r.PredictedViolations, r.Pauses, r.Limits, r.Resumes, r.RandomResumes,
		r.States, r.ViolationStates, r.UnverifiedStates, r.Refreshes, r.RefreshesSkipped, r.Landmarks, r.LastStress, r.QoSStalePeriods,
		r.Accuracy, r.Precision, r.Recall)
}
