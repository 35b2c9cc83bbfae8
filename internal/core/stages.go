package core

import (
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/statespace"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// The lane pipeline splits the monolithic Mapping → Prediction → Action
// period into four typed stages. Each stage is independently testable,
// and the forecaster is swappable (Lane.SetForecaster before the first
// period); the default implementations reproduce the paper's §3 loop
// exactly.

// PeriodInput is everything one lane needs to observe for one monitoring
// period. The host runtime collects samples once per period and fans the
// same input (with per-lane samples and QoS signals) out to every lane.
type PeriodInput struct {
	// Period is the monitoring period index.
	Period int
	// Samples are the per-container usage samples visible to this lane —
	// its own sensitive container plus the shared batch containers; other
	// lanes' sensitive containers have already been filtered out.
	Samples []metrics.Sample
	// Violation reports an application-reported QoS violation.
	Violation bool
	// QoSFresh reports whether the period had a usable QoS report;
	// meaningful only when HasFreshness.
	QoSFresh     bool
	HasFreshness bool
	// SensitiveRunning / BatchRunning drive execution-mode detection.
	SensitiveRunning bool
	BatchRunning     bool
	// BatchActive reports whether any batch application still has work.
	BatchActive bool
}

// MapOutcome is the Mapper stage's result: the state the period's
// measurement vector landed on.
type MapOutcome struct {
	// StateID is the mapped state; NewState marks a freshly created
	// representative.
	StateID  int
	NewState bool
	// Coord is the state's position in the 2-D embedding.
	Coord mds.Coord
	// Stale marks periods where the QoS signal has been silent for at
	// least Config.QoSStaleAfter periods.
	Stale bool
}

// Mapper is the §3.1/§4 stage: sample → normalize → dedup → embed → label.
// It owns the state space and the normalizer, and is the single writer of
// violation/unverified labels.
type Mapper interface {
	// Map places the period's samples into the state space.
	Map(in PeriodInput) (MapOutcome, error)
	// Space exposes the learned state space (read-mostly; the Forecaster
	// reads it, experiments and template export inspect it).
	Space() *statespace.Space
}

// ModelOutcome is the Modeler stage's result.
type ModelOutcome struct {
	// Mode is the detected execution mode.
	Mode trajectory.Mode
	// SensitiveStep is the 2-D distance between the two most recent
	// sensitive-only states — the phase-change signal of §3.3. Zero unless
	// the mode is sensitive-only and a previous same-mode coordinate
	// exists.
	SensitiveStep float64
}

// Modeler is the §3.2.3 stage: execution-mode detection plus per-mode
// trajectory observation. It owns the per-mode step histograms.
type Modeler interface {
	// Observe detects the period's mode and feeds the step from the
	// previous same-mode coordinate into the mode's trajectory model.
	Observe(in PeriodInput, coord mds.Coord) (ModelOutcome, error)
}

// ForecastOutcome is the Forecaster stage's result.
type ForecastOutcome struct {
	// WillViolate is the vote verdict: a transition toward a learned
	// violation-state is predicted.
	WillViolate bool
	// Severity is the violation proximity in [0,1]: the fraction of
	// candidate future states that landed inside a violation-range.
	Severity float64
}

// Forecaster is the §3.2 stage: candidate sampling over the trajectory
// models and the violation-range vote. It owns the prediction-accuracy
// tracker (each verdict is scored against the next period's outcome).
type Forecaster interface {
	// Forecast votes on the next period from the current coordinate.
	Forecast(space *statespace.Space, mode trajectory.Mode, coord mds.Coord) (ForecastOutcome, error)
	// Score records last period's verdict against this period's reported
	// outcome.
	Score(predicted, actual bool)
}

// ActInput is the Actor stage's input — the forecast joined with the
// period's ground truth.
type ActInput struct {
	Period             int
	PredictedViolation bool
	ActualViolation    bool
	Severity           float64
	SensitiveStep      float64
	BatchActive        bool
}

// Actor is the §3.3 stage: the throttle decision. The default
// implementation wraps a throttle.Controller; in a multi-tenant host each
// lane's Actor drives a per-lane handle of the shared actuation arbiter.
type Actor interface {
	// Act runs one period of the throttle decision logic.
	Act(in ActInput) (throttle.Result, error)
}
