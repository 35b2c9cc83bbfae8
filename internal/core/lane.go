package core

import (
	"fmt"
	"math/rand"

	"repro/internal/predictor"
	"repro/internal/resilience"
	"repro/internal/statespace"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// Lane is one sensitive application's full protection pipeline: the four
// §3 stages plus everything they learn — state space, per-mode
// histograms, prediction tracker and the controller's β. A single-tenant
// Runtime wraps exactly one lane; a multi-tenant HostRuntime runs one
// lane per protected application over a shared batch pool, merging their
// throttle decisions through an actuation arbiter.
//
// A Lane is not safe for concurrent use: all methods are called from one
// periodic monitoring loop.
type Lane struct {
	cfg Config

	mapper     Mapper
	modeler    Modeler
	forecaster Forecaster
	actor      Actor

	// Concrete default stages, retained for state accessors (template
	// export, checkpointing, figures). Swapping a stage replaces pipeline
	// behaviour; the accessors keep reflecting the default components.
	ms *mapStage
	ts *modelStage
	fs *forecastStage
	as *actStage

	period int
	report Report
	// last is the latest period's event, for health reporting: the lane
	// keeps what it learned, not a history of what it did — callers take
	// each period's event from Period's return.
	last Event
	// pendingPrediction holds last period's verdict so accuracy is scored
	// against this period's actual outcome.
	pendingPrediction bool
	havePending       bool
}

// NewLane assembles one lane from an already-defaulted, validated config
// and the actuator its throttle controller drives.
func NewLane(cfg Config, act throttle.Actuator) (*Lane, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if act == nil {
		return nil, fmt.Errorf("core: nil actuator")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ms, err := newMapStage(cfg, rng)
	if err != nil {
		return nil, err
	}
	ts, err := newModelStage(cfg)
	if err != nil {
		return nil, err
	}
	fs, err := newForecastStage(cfg, ts.Models(), rng)
	if err != nil {
		return nil, err
	}
	controller, err := throttle.New(cfg.Throttle, act, cfg.BatchIDs, rng)
	if err != nil {
		return nil, err
	}
	as := newActStage(controller, cfg.DisableActions)
	return &Lane{
		cfg:        cfg,
		mapper:     ms,
		modeler:    ts,
		forecaster: fs,
		actor:      as,
		ms:         ms,
		ts:         ts,
		fs:         fs,
		as:         as,
	}, nil
}

// SetForecaster swaps the prediction stage; must be called before the
// first period.
func (l *Lane) SetForecaster(f Forecaster) error {
	if f == nil {
		return fmt.Errorf("core: nil stage")
	}
	if l.period != 0 {
		return fmt.Errorf("core: stage swap after %d periods", l.period)
	}
	l.forecaster = f
	return nil
}

// App returns the fleet-wide application name this lane protects
// (Config.SensitiveApp, defaulted to SensitiveID).
func (l *Lane) App() string { return l.cfg.SensitiveApp }

// SensitiveID returns the lane's sensitive container ID.
func (l *Lane) SensitiveID() string { return l.cfg.SensitiveID }

// Period runs one Mapping → Prediction → Action cycle over the given
// input and returns the event describing it.
func (l *Lane) Period(in PeriodInput) (Event, error) {
	in.Period = l.period
	ev := Event{Period: l.period, App: l.cfg.SensitiveApp}

	// ---- Mapping (§3.1) ----
	mapped, err := l.mapper.Map(in)
	if err != nil {
		return ev, err
	}
	ev.StateID = mapped.StateID
	ev.NewState = mapped.NewState
	ev.Coord = mapped.Coord
	ev.Violation = in.Violation
	ev.QoSStale = mapped.Stale
	if in.Violation {
		l.report.Violations++
	}
	if mapped.Stale {
		l.report.QoSStalePeriods++
	}

	// ---- Execution mode & trajectory learning (§3.2.3) ----
	modeled, err := l.modeler.Observe(in, mapped.Coord)
	if err != nil {
		return ev, err
	}
	ev.Mode = modeled.Mode

	// ---- Prediction (§3.2) ----
	forecast, err := l.forecaster.Forecast(l.mapper.Space(), modeled.Mode, mapped.Coord)
	if err != nil {
		return ev, err
	}
	ev.Predicted = forecast.WillViolate
	ev.Severity = forecast.Severity
	if forecast.WillViolate {
		l.report.PredictedViolations++
	}

	// Score last period's prediction against this period's outcome.
	if l.havePending {
		l.forecaster.Score(l.pendingPrediction, in.Violation)
	}
	l.pendingPrediction = forecast.WillViolate
	l.havePending = true

	// ---- Action (§3.3) ----
	res, err := l.actor.Act(ActInput{
		Period:             l.period,
		PredictedViolation: forecast.WillViolate,
		ActualViolation:    in.Violation,
		Severity:           forecast.Severity,
		SensitiveStep:      modeled.SensitiveStep,
		BatchActive:        in.BatchActive,
	})
	if err != nil {
		return ev, err
	}
	ev.Action = res.Action
	ev.Throttled = res.Throttled
	ev.RandomResume = res.RandomResume
	ev.Beta = res.Beta
	ev.Level = res.Level
	switch res.Action {
	case throttle.ActionPause:
		l.report.Pauses++
	case throttle.ActionLimit:
		l.report.Limits++
	case throttle.ActionResume:
		l.report.Resumes++
		if res.RandomResume {
			l.report.RandomResumes++
		}
	}

	l.period++
	l.report.Periods++
	l.last = ev
	return ev, nil
}

// Space exposes the learned state space (read-mostly; used by experiments
// and template export).
func (l *Lane) Space() *statespace.Space { return l.mapper.Space() }

// Models exposes the per-mode trajectory models for figure generation.
func (l *Lane) Models() *trajectory.ModeModels { return l.ts.Models() }

// Throttled reports whether this lane currently requests batch
// restriction.
func (l *Lane) Throttled() bool { return l.as.Controller().Throttled() }

// Beta returns the controller's learned resume threshold.
func (l *Lane) Beta() float64 { return l.as.Controller().Beta() }

// Level returns the batch CPU allowance this lane currently requests:
// 1 unlimited, 0 frozen, intermediate values are graded quotas.
func (l *Lane) Level() float64 { return l.as.Controller().Level() }

// Periods returns how many periods this lane has run.
func (l *Lane) Periods() int { return l.period }

// Report returns aggregate counters.
func (l *Lane) Report() Report {
	rep := l.report
	space := l.mapper.Space()
	rep.States = space.Len()
	rep.ViolationStates = space.ViolationCount()
	rep.UnverifiedStates = space.UnverifiedCount()
	rep.Refreshes = l.ms.refreshes
	rep.RefreshesSkipped = l.ms.refreshesSkipped
	rep.Landmarks = len(l.ms.landmarks)
	rep.LastStress = l.ms.stress
	tracker := l.fs.Tracker()
	rep.Accuracy = tracker.Accuracy()
	rep.Precision = tracker.Precision()
	rep.Recall = tracker.Recall()
	return rep
}

// Tracker exposes the raw prediction-accuracy tracker.
func (l *Lane) Tracker() *predictor.Tracker { return l.fs.Tracker() }

// ExportTemplate captures the learned map for reuse (§6), stamped with the
// lane's measurement schema so importers can reject incompatible maps.
func (l *Lane) ExportTemplate(sensitiveApp string) *statespace.Template {
	return statespace.Export(l.ms.space, sensitiveApp, l.ms.normalizer.Snapshot(), l.ms.schema)
}

// ImportTemplate seeds the lane with a previously learned map. It must be
// called before the first Period: the imported states become the starting
// state space and the normalizer adopts the template's ranges so new
// vectors are comparable with the template's.
func (l *Lane) ImportTemplate(t *statespace.Template) error {
	if l.period != 0 {
		return fmt.Errorf("core: template import after %d periods", l.period)
	}
	space, err := statespace.Import(t)
	if err != nil {
		return err
	}
	// A template measured under a different metric schema would produce
	// vectors incomparable with this lane's; reject instead of silently
	// mixing them.
	if err := t.CompatibleWith(l.ms.schema); err != nil {
		return fmt.Errorf("core: template import: %w", err)
	}
	return l.ms.importSpace(space, t.Ranges)
}

// Checkpoint captures everything the lane has learned — the state-space
// template, the per-mode trajectory histograms, and the throttle
// controller's learned state — into one serializable snapshot.
func (l *Lane) Checkpoint() *resilience.Checkpoint {
	ctl := l.as.Controller().Snapshot()
	return &resilience.Checkpoint{
		Version:    1,
		Periods:    l.period,
		Template:   l.ExportTemplate(l.cfg.SensitiveApp),
		Models:     l.ts.Models().Snapshot(),
		Controller: &ctl,
	}
}

// RestoreCheckpoint adopts a previously saved checkpoint: the template
// seeds the state space (exactly like ImportTemplate, with the same
// schema and dedup validation), the trajectory models take over the
// checkpointed histograms, and the controller recovers its learned β.
// It must be called before the first Period. Actuation state is NOT
// restored — recovery thaws everything first, and the controller comes
// back believing nothing is throttled, matching that reality.
func (l *Lane) RestoreCheckpoint(c *resilience.Checkpoint) error {
	if c == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if err := l.ImportTemplate(c.Template); err != nil {
		return fmt.Errorf("core: checkpoint template: %w", err)
	}
	if c.Models != nil {
		if err := l.ts.Models().Restore(c.Models); err != nil {
			return fmt.Errorf("core: checkpoint models: %w", err)
		}
	}
	if c.Controller != nil {
		if err := l.as.Controller().Restore(*c.Controller); err != nil {
			return fmt.Errorf("core: checkpoint controller: %w", err)
		}
	}
	return nil
}

// Release lifts every throttle restriction this lane has requested — the
// per-lane half of the emergency thaw-all. With actions disabled it is a
// no-op.
func (l *Lane) Release() error {
	if l.cfg.DisableActions {
		return nil
	}
	return l.as.Controller().Release()
}
