package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// SensitiveSpec places one protected application in a multi-tenant run.
type SensitiveSpec struct {
	// ID is the container ID on the simulated host.
	ID string
	// App is the fleet-wide application name the lane is keyed by;
	// defaults to ID.
	App string
	// Start delays the container's creation (0 = from the first tick). A
	// Start at or beyond Ticks keeps the lane idle for the whole run.
	Start int
	// Build constructs the application; called once at Start with a
	// scenario-derived deterministic RNG.
	Build func(rng *rand.Rand) sim.QoSApp
}

// MultiScenario describes a run where several protected applications
// share one host and one batch pool — the multi-tenant counterpart of
// Scenario. Each sensitive gets its own lane in a core.HostRuntime; the
// lanes' decisions meet in the actuation arbiter.
type MultiScenario struct {
	Name string
	// Host is the simulated machine; zero value uses the default host.
	Host sim.HostConfig
	// Sensitives are the protected applications (at least one).
	Sensitives []SensitiveSpec
	// Batch schedules the shared batch containers.
	Batch []Placement
	// Ticks is the run length.
	Ticks int
	// Seed drives all randomness (simulated apps and the lanes).
	Seed int64
	// StayAway enables the host runtime. When false the co-location runs
	// unprotected.
	StayAway bool
	// Tune mutates one lane's config before construction (nil = defaults);
	// called once per sensitive with its application name.
	Tune func(app string, cfg *core.Config)
	// Hook, when non-nil, runs after each simulator step with the tick
	// index.
	Hook func(tick int)
}

// LaneTick is one lane's observable outcome in one tick.
type LaneTick struct {
	QoS              float64
	Threshold        float64
	Violation        bool
	SensitiveRunning bool
	Mode             trajectory.Mode
	Coord            mds.Coord
	Action           throttle.Action
	Predicted        bool
	// Throttled reports whether THIS lane restricts the shared pool at the
	// end of the tick (the pool itself may be restricted by another lane).
	Throttled bool
}

// MultiTickRecord is one tick of a multi-tenant run: the shared host
// signals plus one LaneTick per application.
type MultiTickRecord struct {
	Tick          int
	Utilization   float64
	BatchCPUShare float64
	BatchRunning  bool
	// Lanes is keyed by application name.
	Lanes map[string]LaneTick
}

// MultiRunResult is a completed multi-tenant scenario.
type MultiRunResult struct {
	Scenario MultiScenario
	Records  []MultiTickRecord
	// Reports and Events are per application name (nil without Stay-Away).
	Reports map[string]core.Report
	Events  map[string][]core.Event
	// Host is the live host runtime (nil without Stay-Away).
	Host *core.HostRuntime
	// BatchWork is the total effective CPU the batch containers performed.
	BatchWork float64
	// AvgUtilization is the mean machine utilization over the run.
	AvgUtilization float64
}

// simHostEnv adapts the simulator to core.HostEnvironment: the host
// samples every container once per tick and the HostRuntime fans the
// slice out to its lanes.
type simHostEnv struct {
	sim      *sim.Simulator
	batchIDs []string
}

var _ core.HostEnvironment = (*simHostEnv)(nil)

func (e *simHostEnv) Collect() []metrics.Sample { return e.sim.Samples() }

func (e *simHostEnv) BatchRunning() bool {
	for _, id := range e.batchIDs {
		if c, err := e.sim.Container(id); err == nil && c.Running() {
			return true
		}
	}
	return false
}

func (e *simHostEnv) BatchActive() bool {
	for _, id := range e.batchIDs {
		if c, err := e.sim.Container(id); err == nil && c.Active() {
			return true
		}
	}
	return false
}

// simLaneSignals is one protected application's view of the simulator.
// The QoS app is bound late, when the scenario schedules the container —
// until then the lane sees "not running, no violation".
type simLaneSignals struct {
	sim    *sim.Simulator
	id     string
	qosApp sim.QoSApp
}

var _ core.LaneSignals = (*simLaneSignals)(nil)

func (s *simLaneSignals) QoSViolation() bool {
	if s.qosApp == nil || !s.SensitiveRunning() {
		return false
	}
	value, threshold := s.qosApp.QoS()
	return value < threshold
}

func (s *simLaneSignals) SensitiveRunning() bool {
	c, err := s.sim.Container(s.id)
	return err == nil && c.Running()
}

// RunMulti executes a multi-tenant scenario. It mirrors Run tick for
// tick: schedule due containers, step the simulator, record observables,
// then drive one host period that fans the shared sample pass out to
// every lane.
func RunMulti(sc MultiScenario) (*MultiRunResult, error) {
	if sc.Ticks <= 0 {
		return nil, fmt.Errorf("experiments: Ticks must be positive, got %d", sc.Ticks)
	}
	if len(sc.Sensitives) == 0 {
		return nil, fmt.Errorf("experiments: multi-tenant run needs at least one sensitive")
	}
	host := sc.Host
	if host == (sim.HostConfig{}) {
		host = sim.DefaultHostConfig()
	}
	simulator, err := sim.NewSimulator(host)
	if err != nil {
		return nil, err
	}

	rootRNG := rand.New(rand.NewSource(sc.Seed))
	appSeed := func() int64 { return rootRNG.Int63() }

	specs := make([]SensitiveSpec, len(sc.Sensitives))
	sensRNGs := make([]*rand.Rand, len(sc.Sensitives))
	seenID, seenApp := map[string]bool{}, map[string]bool{}
	for i, sp := range sc.Sensitives {
		if sp.ID == "" || sp.Build == nil {
			return nil, fmt.Errorf("experiments: sensitive spec %d incomplete", i)
		}
		if sp.App == "" {
			sp.App = sp.ID
		}
		if seenID[sp.ID] || seenApp[sp.App] {
			return nil, fmt.Errorf("experiments: duplicate sensitive %q/%q", sp.ID, sp.App)
		}
		seenID[sp.ID], seenApp[sp.App] = true, true
		specs[i] = sp
		sensRNGs[i] = rand.New(rand.NewSource(appSeed()))
	}

	batchIDs := make([]string, 0, len(sc.Batch))
	batchRNGs := make([]*rand.Rand, len(sc.Batch))
	for i, p := range sc.Batch {
		if p.ID == "" || p.App == nil {
			return nil, fmt.Errorf("experiments: batch placement %d incomplete", i)
		}
		batchIDs = append(batchIDs, p.ID)
		batchRNGs[i] = rand.New(rand.NewSource(appSeed()))
	}

	var hostRT *core.HostRuntime
	sigs := make([]*simLaneSignals, len(specs))
	for i, sp := range specs {
		sigs[i] = &simLaneSignals{sim: simulator, id: sp.ID}
	}
	if sc.StayAway {
		henv := &simHostEnv{sim: simulator, batchIDs: batchIDs}
		hostRT, err = core.NewHost(henv, NewSimActuator(simulator))
		if err != nil {
			return nil, err
		}
		for i, sp := range specs {
			cfg := core.DefaultConfig(sp.ID, batchIDs, metrics.DefaultRanges(
				host.Cores, host.MemoryMB, host.DiskMBps, host.NetMbps))
			cfg.SensitiveApp = sp.App
			cfg.Seed = appSeed()
			if sc.Tune != nil {
				sc.Tune(sp.App, &cfg)
			}
			if _, err := hostRT.AddLane(cfg, sigs[i]); err != nil {
				return nil, fmt.Errorf("experiments: lane %q: %w", sp.App, err)
			}
		}
	}

	res := &MultiRunResult{Scenario: sc, Host: hostRT}
	if hostRT != nil {
		res.Events = make(map[string][]core.Event, len(specs))
	}
	for tick := 0; tick < sc.Ticks; tick++ {
		for i, sp := range specs {
			if tick == sp.Start {
				qosApp := sp.Build(sensRNGs[i])
				if _, err := simulator.AddContainer(sp.ID, qosApp); err != nil {
					return nil, err
				}
				sigs[i].qosApp = qosApp
			}
		}
		for i, p := range sc.Batch {
			if tick == p.StartTick {
				if _, err := simulator.AddContainer(p.ID, p.App(batchRNGs[i])); err != nil {
					return nil, err
				}
			}
		}

		simulator.Step()
		if sc.Hook != nil {
			sc.Hook(tick)
		}

		rec := MultiTickRecord{
			Tick:        tick,
			Utilization: simulator.LastTickUtilization(),
			Lanes:       make(map[string]LaneTick, len(specs)),
		}
		for i, sp := range specs {
			var lt LaneTick
			if sigs[i].qosApp != nil {
				if c, err := simulator.Container(sp.ID); err == nil && c.Running() {
					lt.SensitiveRunning = true
					lt.QoS, lt.Threshold = sigs[i].qosApp.QoS()
					lt.Violation = lt.QoS < lt.Threshold
				}
			}
			rec.Lanes[sp.App] = lt
		}
		var batchCPU float64
		for _, id := range batchIDs {
			c, err := simulator.Container(id)
			if err != nil {
				continue
			}
			batchCPU += c.LastGrant().CPU
			if c.Running() {
				rec.BatchRunning = true
			}
		}
		rec.BatchCPUShare = batchCPU / host.CPUCapacity()

		if hostRT != nil {
			evs, err := hostRT.Period()
			if err != nil {
				return nil, fmt.Errorf("experiments: period %d: %w", tick, err)
			}
			for _, ev := range evs {
				res.Events[ev.App] = append(res.Events[ev.App], ev)
				lt := rec.Lanes[ev.App]
				lt.Mode = ev.Mode
				lt.Coord = ev.Coord
				lt.Action = ev.Action
				lt.Predicted = ev.Predicted
				lt.Throttled = ev.Throttled
				rec.Lanes[ev.App] = lt
			}
		}
		res.Records = append(res.Records, rec)
	}

	for _, id := range batchIDs {
		if c, err := simulator.Container(id); err == nil {
			res.BatchWork += c.TotalEffectiveCPU()
		}
	}
	res.AvgUtilization = simulator.Utilization()
	if hostRT != nil {
		res.Reports = make(map[string]core.Report, len(specs))
		for _, lane := range hostRT.Lanes() {
			res.Reports[lane.App()] = lane.Report()
		}
	}
	return res, nil
}

// LaneViolations counts one lane's QoS-violation ticks.
func (r *MultiRunResult) LaneViolations(app string) int {
	n := 0
	for _, rec := range r.Records {
		if rec.Lanes[app].Violation {
			n++
		}
	}
	return n
}

// ConflictScenario is the two-sensitive conflicting workload of the
// multi-tenant evaluation: a bursty VLC transcoder whose scene changes
// demand hard freezes, co-located with a steady CPU-intensive webservice
// that only degrades under sustained interference — their lanes disagree
// about how restricted the shared CPU-bomb pool should be, and the
// arbiter must keep the pool at the most severe of the two demands.
func ConflictScenario(seed int64) MultiScenario {
	// Two sensitives need more headroom than the default 4-core host:
	// transcoder (≈280 CPU) + webservice (≈250 CPU) must fit with the pool
	// frozen, or no amount of throttling can restore QoS.
	host := sim.DefaultHostConfig()
	host.Cores = 8
	host.MemoryMB = 8192
	return MultiScenario{
		Name: "two-sensitive-conflict",
		Host: host,
		Sensitives: []SensitiveSpec{
			{ID: "vlc", App: "vlc-transcode", Start: 0, Build: vlcTranscodeQoSApp},
			{ID: "web", App: "webservice", Start: 0,
				Build: webserviceApp(apps.CPUIntensive, apps.ConstantIntensity(0.8))},
		},
		Batch: []Placement{
			{ID: "bomb1", StartTick: 40, App: cpuBombApp},
			{ID: "bomb2", StartTick: 60, App: cpuBombApp},
		},
		Ticks:    1200,
		Seed:     seed,
		StayAway: true,
	}
}

// MultiTenant runs the conflicting two-sensitive scenario with and
// without Stay-Away and renders the comparison: per-lane violation
// counts, pause/resume activity, and the gained batch utilization.
func MultiTenant(seed int64) (*Figure, error) {
	sc := ConflictScenario(seed)
	protected, err := RunMulti(sc)
	if err != nil {
		return nil, err
	}
	base := sc
	base.StayAway = false
	baseline, err := RunMulti(base)
	if err != nil {
		return nil, err
	}

	text := fmt.Sprintf("scenario %s: %d ticks, %d sensitives, %d batch containers\n\n",
		sc.Name, sc.Ticks, len(sc.Sensitives), len(sc.Batch))
	text += fmt.Sprintf("%-16s %12s %12s %8s %8s\n",
		"lane", "viol (none)", "viol (SA)", "pauses", "resumes")
	for _, sp := range sc.Sensitives {
		rep := protected.Reports[sp.App]
		text += fmt.Sprintf("%-16s %12d %12d %8d %8d\n",
			sp.App, baseline.LaneViolations(sp.App), protected.LaneViolations(sp.App),
			rep.Pauses, rep.Resumes)
	}
	text += fmt.Sprintf("\nbatch work: %.0f (baseline %.0f, %.0f%% retained)\n",
		protected.BatchWork, baseline.BatchWork,
		100*protected.BatchWork/maxf(baseline.BatchWork, 1))
	text += fmt.Sprintf("avg utilization: %.2f (baseline %.2f)\n",
		protected.AvgUtilization, baseline.AvgUtilization)

	summary := map[string]float64{
		"batch_retained": protected.BatchWork / maxf(baseline.BatchWork, 1),
	}
	for _, sp := range sc.Sensitives {
		b := baseline.LaneViolations(sp.App)
		if b == 0 {
			b = 1
		}
		summary["viol_ratio_"+sp.App] =
			float64(protected.LaneViolations(sp.App)) / float64(b)
	}

	return &Figure{
		ID:      "multitenant",
		Title:   "Two conflicting sensitives sharing one batch pool (host runtime + arbiter)",
		Text:    text,
		Summary: summary,
	}, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
