package core

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/throttle"
)

// HostEnvironment is what a multi-tenant host observes each period: one
// shared sample collection over every co-located container and the batch
// pool's run state. Samples are collected ONCE and fanned out to the
// lanes — each lane sees only its own sensitive container plus its batch
// containers.
type HostEnvironment interface {
	// Collect returns the current usage samples for every container on
	// the host (all sensitive containers and the whole batch pool).
	Collect() []metrics.Sample
	// BatchRunning reports whether any batch application is actively
	// executing (a frozen batch container is not running).
	BatchRunning() bool
	// BatchActive reports whether any batch application still has work
	// (running or frozen).
	BatchActive() bool
}

// LaneSignals are one protected application's own observations: its QoS
// report and run state. Implementations may additionally implement
// QoSFreshness to let the lane distinguish "no violation" from "no
// report".
type LaneSignals interface {
	QoSViolation() bool
	SensitiveRunning() bool
}

// HostRuntime runs one protection Lane per sensitive application over a
// shared batch pool. Each period it collects samples once, fans them out
// per lane, and runs every lane's Mapping → Prediction → Action cycle;
// the lanes' throttle decisions land on the shared batch containers
// through an actuation arbiter (union freeze, most-severe-wins quotas,
// release only when every restricting lane has resumed).
//
// Like Runtime, a HostRuntime is single-threaded by design: one periodic
// monitoring loop drives it.
type HostRuntime struct {
	env     HostEnvironment
	arbiter *throttle.Arbiter
	lanes   []*hostLane
	byApp   map[string]*hostLane
	periods int
}

// hostLane pairs a Lane with its signal source and sample filter.
type hostLane struct {
	lane   *Lane
	sig    LaneSignals
	filter func(vm string) bool
}

// NewHost builds a multi-tenant runtime over the shared environment and
// the downstream actuator (the real cgroup actuator, its ledgered
// wrapper, or the simulator's). Lanes are added with AddLane — before
// the first Period, or live at any later period boundary.
func NewHost(env HostEnvironment, downstream throttle.Actuator) (*HostRuntime, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil host environment")
	}
	arbiter, err := throttle.NewArbiter(downstream)
	if err != nil {
		return nil, err
	}
	return &HostRuntime{
		env:     env,
		arbiter: arbiter,
		byApp:   make(map[string]*hostLane),
	}, nil
}

// AddLane registers one protected application: its pipeline config and
// its signal source. The lane's controller drives an arbiter handle named
// after the application, so its decisions merge with the other lanes'.
//
// AddLane may be called before the first Period or live at any later
// period boundary (between Period calls, from the control-loop
// goroutine — the HostRuntime stays single-threaded). A lane added live
// starts learning at its own period 0; the surviving lanes and their
// restrictions are untouched.
func (h *HostRuntime) AddLane(cfg Config, sig LaneSignals) (*Lane, error) {
	if sig == nil {
		return nil, fmt.Errorf("core: nil lane signals")
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if _, dup := h.byApp[cfg.SensitiveApp]; dup {
		return nil, fmt.Errorf("core: duplicate lane for application %q", cfg.SensitiveApp)
	}
	if err := h.checkCollisions(cfg, nil); err != nil {
		return nil, err
	}
	lane, err := NewLane(cfg, h.arbiter.Lane(cfg.SensitiveApp))
	if err != nil {
		return nil, err
	}
	hl := &hostLane{
		lane:   lane,
		sig:    sig,
		filter: metrics.LaneFilter(cfg.SensitiveID, cfg.BatchIDs),
	}
	h.lanes = append(h.lanes, hl)
	h.byApp[cfg.SensitiveApp] = hl
	return lane, nil
}

// checkCollisions rejects cfg when one of its containers has the other
// role on a lane other than exempt: one container cannot be sensitive on
// one lane and batch on another, or the second lane would throttle the
// first lane's protected workload.
func (h *HostRuntime) checkCollisions(cfg Config, exempt *hostLane) error {
	for _, hl := range h.lanes {
		if hl == exempt {
			continue
		}
		if hl.lane.SensitiveID() == cfg.SensitiveID {
			return fmt.Errorf("core: sensitive container %q already owned by lane %q",
				cfg.SensitiveID, hl.lane.App())
		}
		for _, id := range cfg.BatchIDs {
			if id == hl.lane.SensitiveID() {
				return fmt.Errorf("core: container %q is lane %q's sensitive app, cannot be batch",
					id, hl.lane.App())
			}
		}
		for _, id := range hl.lane.cfg.BatchIDs {
			if id == cfg.SensitiveID {
				return fmt.Errorf("core: container %q is lane %q's batch, cannot be sensitive",
					cfg.SensitiveID, hl.lane.App())
			}
		}
	}
	return nil
}

// RemoveLane drains and removes the named lane. Like AddLane it is a
// period-boundary operation run from the control-loop goroutine. The
// drain is fail-safe by construction: the lane's controller first
// withdraws its own restrictions through the arbiter merge (targets it
// alone restricted thaw; targets other lanes still restrict thaw into
// the surviving quota — the survivors never see a restriction gap), then
// the lane's residual desires are purged from the merge with DropLane,
// which can only loosen. The removed Lane is returned so the caller can
// flush its final checkpoint; it must not be driven after removal.
//
// The lane leaves the runtime even when the drain actuation errors (the
// error is still returned): a lane that failed to thaw downstream must
// not keep merging, and with a ledgered downstream the missed thaw is
// exactly what boot recovery over-thaws.
func (h *HostRuntime) RemoveLane(app string) (*Lane, error) {
	hl, ok := h.byApp[app]
	if !ok {
		return nil, fmt.Errorf("core: no lane for application %q", app)
	}
	relErr := hl.lane.Release()
	dropErr := h.arbiter.DropLane(app)
	delete(h.byApp, app)
	for i, cur := range h.lanes {
		if cur == hl {
			h.lanes = append(h.lanes[:i], h.lanes[i+1:]...)
			break
		}
	}
	if relErr != nil {
		return hl.lane, relErr
	}
	return hl.lane, dropErr
}

// ReconfigureLane replaces the lane named by cfg.SensitiveApp with one
// built from cfg, at a period boundary. It is two-phase: the replacement
// lane is fully constructed and validated first, so a bad configuration
// returns an error with the running lane untouched; only then is the old
// lane drained exactly as RemoveLane drains it and the new lane swapped
// in (preserving lane order). The old lane's learned state — template,
// trajectory histograms, controller β — is carried into the new lane
// when the measurement schema still matches; an incompatible change
// (e.g. a different container set changes the sample schema) starts the
// new lane cold. The returned bool reports whether state was carried.
func (h *HostRuntime) ReconfigureLane(cfg Config, sig LaneSignals) (*Lane, bool, error) {
	if sig == nil {
		return nil, false, fmt.Errorf("core: nil lane signals")
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, false, err
	}
	old, ok := h.byApp[cfg.SensitiveApp]
	if !ok {
		return nil, false, fmt.Errorf("core: no lane for application %q", cfg.SensitiveApp)
	}
	// The lane being replaced is exempt: it is on its way out.
	if err := h.checkCollisions(cfg, old); err != nil {
		return nil, false, err
	}
	lane, err := NewLane(cfg, h.arbiter.Lane(cfg.SensitiveApp))
	if err != nil {
		return nil, false, err
	}
	var ck *resilience.Checkpoint
	if old.lane.Space().Len() > 0 {
		ck = old.lane.Checkpoint()
	}
	// Commit point: drain the old lane. Arbiter lane records are looked up
	// by name on every actuation, so recreating the record after DropLane
	// revalidates the handle the new lane's controller already holds.
	relErr := old.lane.Release()
	dropErr := h.arbiter.DropLane(cfg.SensitiveApp)
	h.arbiter.Lane(cfg.SensitiveApp)
	hl := &hostLane{
		lane:   lane,
		sig:    sig,
		filter: metrics.LaneFilter(cfg.SensitiveID, cfg.BatchIDs),
	}
	for i, cur := range h.lanes {
		if cur == old {
			h.lanes[i] = hl
			break
		}
	}
	h.byApp[cfg.SensitiveApp] = hl
	carried := false
	if ck != nil {
		// Best effort: a schema-incompatible checkpoint means the workload
		// the old lane learned no longer describes this one — cold start.
		carried = lane.RestoreCheckpoint(ck) == nil
	}
	if relErr != nil {
		return lane, carried, relErr
	}
	return lane, carried, dropErr
}

// LaneHealth is one lane's point-in-time health, assembled at a period
// boundary for the daemon's readiness and event surfaces.
type LaneHealth struct {
	// App is the sensitive application the lane protects.
	App string `json:"app"`
	// Periods is how many periods the lane has run (0 = freshly added).
	Periods int `json:"periods"`
	// Throttled reports whether the lane currently restricts the batch
	// pool; Level is its requested CPU allowance (1 unlimited, 0 frozen).
	Throttled bool    `json:"throttled"`
	Level     float64 `json:"level"`
	// Beta is the controller's learned resume threshold.
	Beta float64 `json:"beta"`
	// Violations counts application-reported QoS violations so far.
	Violations int `json:"violations"`
	// States and ViolationStates describe the learned space.
	States          int `json:"states"`
	ViolationStates int `json:"violation_states"`
	// QoSStale marks a lane whose application QoS signal has gone silent
	// (last period ran stale).
	QoSStale bool `json:"qos_stale,omitempty"`
}

// Health reports every lane's health in lane order. Like Period it runs
// on the control-loop goroutine (it reads the lanes' learned state);
// daemons snapshot it between periods and serve the snapshot.
func (h *HostRuntime) Health() []LaneHealth {
	out := make([]LaneHealth, 0, len(h.lanes))
	for _, hl := range h.lanes {
		rep := hl.lane.Report()
		lh := LaneHealth{
			App:             hl.lane.App(),
			Periods:         rep.Periods,
			Throttled:       hl.lane.Throttled(),
			Level:           hl.lane.Level(),
			Beta:            hl.lane.Beta(),
			Violations:      rep.Violations,
			States:          rep.States,
			ViolationStates: rep.ViolationStates,
		}
		lh.QoSStale = hl.lane.last.QoSStale
		out = append(out, lh)
	}
	return out
}

// Period runs one monitoring period across every lane, in lane insertion
// order, over a single shared sample collection. It returns one event per
// lane. A lane error stops the period and is attributed to the lane; the
// events of lanes that already ran are still returned.
func (h *HostRuntime) Period() ([]Event, error) {
	if len(h.lanes) == 0 {
		return nil, fmt.Errorf("core: host runtime has no lanes")
	}
	// Collect once; each lane sees its own slice of the host's samples.
	samples := h.env.Collect()
	batchRunning := h.env.BatchRunning()
	batchActive := h.env.BatchActive()

	events := make([]Event, 0, len(h.lanes))
	for _, hl := range h.lanes {
		in := PeriodInput{
			Samples:          metrics.Select(samples, hl.filter),
			Violation:        hl.sig.QoSViolation(),
			SensitiveRunning: hl.sig.SensitiveRunning(),
			BatchRunning:     batchRunning,
			BatchActive:      batchActive,
		}
		if qf, ok := hl.sig.(QoSFreshness); ok {
			in.HasFreshness = true
			in.QoSFresh = qf.QoSFresh()
		}
		ev, err := hl.lane.Period(in)
		if err != nil {
			return events, fmt.Errorf("core: lane %q: %w", hl.lane.App(), err)
		}
		events = append(events, ev)
	}
	h.periods++
	return events, nil
}

// Periods returns how many host periods have completed.
func (h *HostRuntime) Periods() int { return h.periods }

// Apps returns the registered application names in lane order.
func (h *HostRuntime) Apps() []string {
	out := make([]string, len(h.lanes))
	for i, hl := range h.lanes {
		out[i] = hl.lane.App()
	}
	return out
}

// Lane returns the lane protecting the named application, or nil.
func (h *HostRuntime) Lane(app string) *Lane {
	if hl, ok := h.byApp[app]; ok {
		return hl.lane
	}
	return nil
}

// Lanes returns every lane in insertion order.
func (h *HostRuntime) Lanes() []*Lane {
	out := make([]*Lane, len(h.lanes))
	for i, hl := range h.lanes {
		out[i] = hl.lane
	}
	return out
}

// Arbiter exposes the actuation arbiter — the observability surface for
// "which lane is holding the batch pool down".
func (h *HostRuntime) Arbiter() *throttle.Arbiter { return h.arbiter }

// Restricting returns, per batch container, the lanes currently
// restricting it (sorted app names). Containers nobody restricts are
// omitted.
func (h *HostRuntime) Restricting() map[string][]string {
	out := make(map[string][]string)
	seen := make(map[string]bool)
	for _, hl := range h.lanes {
		for _, id := range hl.lane.cfg.BatchIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			if lanes := h.arbiter.Restricting(id); len(lanes) > 0 {
				out[id] = lanes
			}
		}
	}
	return out
}

// Release lifts every restriction on the shared batch pool — the
// emergency thaw-all for fail-safe paths. It bypasses the per-lane merge:
// after a fault the lanes' beliefs cannot be trusted.
func (h *HostRuntime) Release() error { return h.arbiter.ReleaseAll() }

// BatchIDs returns the union of every lane's batch containers, sorted —
// the shared pool recovery must thaw.
func (h *HostRuntime) BatchIDs() []string {
	set := make(map[string]bool)
	for _, hl := range h.lanes {
		for _, id := range hl.lane.cfg.BatchIDs {
			set[id] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
