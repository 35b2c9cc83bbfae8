package core

import (
	"fmt"

	"repro/internal/predictor"
	"repro/internal/statespace"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// Runtime is the single-tenant Stay-Away middleware instance for one
// host: one protected application, one lane. It observes an Environment
// each period and delegates the Mapping → Prediction → Action cycle to
// the lane's staged pipeline. Hosts protecting several sensitive
// applications use HostRuntime instead.
//
// Runtime is not safe for concurrent use: all methods are called from the
// single periodic monitoring loop.
type Runtime struct {
	env  Environment
	lane *Lane
}

// New assembles a runtime against the given environment and actuator.
func New(cfg Config, env Environment, act throttle.Actuator) (*Runtime, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if env == nil {
		return nil, fmt.Errorf("core: nil environment")
	}
	lane, err := NewLane(cfg, act)
	if err != nil {
		return nil, err
	}
	return &Runtime{env: env, lane: lane}, nil
}

// Period executes one full Mapping → Prediction → Action cycle and returns
// the event describing it.
func (r *Runtime) Period() (Event, error) {
	in := PeriodInput{
		Samples:          r.env.Collect(),
		Violation:        r.env.QoSViolation(),
		SensitiveRunning: r.env.SensitiveRunning(),
		BatchRunning:     r.env.BatchRunning(),
		BatchActive:      r.env.BatchActive(),
	}
	if f, ok := r.env.(QoSFreshness); ok {
		in.HasFreshness = true
		in.QoSFresh = f.QoSFresh()
	}
	return r.lane.Period(in)
}

// Lane exposes the runtime's single protection lane.
func (r *Runtime) Lane() *Lane { return r.lane }

// Space exposes the learned state space (read-mostly; used by experiments
// and template export).
func (r *Runtime) Space() *statespace.Space { return r.lane.Space() }

// Models exposes the per-mode trajectory models for figure generation.
func (r *Runtime) Models() *trajectory.ModeModels { return r.lane.Models() }

// Throttled reports whether the batch applications are currently paused.
func (r *Runtime) Throttled() bool { return r.lane.Throttled() }

// Beta returns the controller's learned resume threshold.
func (r *Runtime) Beta() float64 { return r.lane.Beta() }

// Events returns the latest period's event, or nil before the first
// period. The runtime keeps no history: a caller that wants every
// period's event collects it from Period's return.
func (r *Runtime) Events() []Event {
	if r.lane.period == 0 {
		return nil
	}
	return []Event{r.lane.last}
}

// Report returns aggregate counters.
func (r *Runtime) Report() Report { return r.lane.Report() }

// Tracker exposes the raw prediction-accuracy tracker.
func (r *Runtime) Tracker() *predictor.Tracker { return r.lane.Tracker() }

// ExportTemplate captures the learned map for reuse (§6), stamped with the
// runtime's measurement schema so importers can reject incompatible maps.
func (r *Runtime) ExportTemplate(sensitiveApp string) *statespace.Template {
	return r.lane.ExportTemplate(sensitiveApp)
}

// ImportTemplate seeds the runtime with a previously learned map. It must
// be called before the first Period.
func (r *Runtime) ImportTemplate(t *statespace.Template) error {
	return r.lane.ImportTemplate(t)
}
