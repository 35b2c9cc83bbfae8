package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// Placement schedules one container.
type Placement struct {
	// ID is the container ID.
	ID string
	// StartTick is when the container is created (0 = from the start).
	StartTick int
	// App builds the application instance; called once at StartTick with
	// a scenario-derived deterministic RNG.
	App func(rng *rand.Rand) sim.App
}

// Scenario describes one experiment run.
type Scenario struct {
	// Name labels the run in reports.
	Name string
	// Host is the simulated machine; zero value uses the default host.
	Host sim.HostConfig
	// SensitiveID and Sensitive build the latency-sensitive application;
	// leave Sensitive nil for batch-only runs.
	SensitiveID string
	Sensitive   func(rng *rand.Rand) sim.QoSApp
	// SensitiveStart delays the sensitive container's creation.
	SensitiveStart int
	// Services schedules additional service-tier containers that belong to
	// the sensitive application (the downstream stages of a microservice
	// chain). Their usage is aggregated into the sensitive schema slot and
	// they are never throttled; QoS still comes from the Sensitive app.
	Services []Placement
	// Batch schedules the batch containers.
	Batch []Placement
	// Ticks is the run length.
	Ticks int
	// Seed drives all randomness (simulated apps and the runtime).
	Seed int64
	// StayAway enables the runtime. When false the co-location runs
	// unprotected (the paper's "without prevention" baseline).
	StayAway bool
	// DisableActions runs the runtime in observe-only mode (mapping and
	// prediction without throttling) — used by the template validation.
	DisableActions bool
	// Template optionally seeds the runtime with a previously learned map.
	Template *statespace.Template
	// Tune mutates the runtime config before construction (nil = defaults).
	Tune func(*core.Config)
	// Hook, when non-nil, is invoked after each simulator step with the
	// tick index — used by debugging tools and white-box tests to inspect
	// application state mid-run.
	Hook func(tick int)
}

// TickRecord is one tick's observable outcome.
type TickRecord struct {
	Tick int
	// QoS and Threshold are the sensitive application's report (zero when
	// no sensitive app runs or it hasn't started).
	QoS       float64
	Threshold float64
	// Violation marks QoS < Threshold while the sensitive app runs.
	Violation bool
	// SensitiveRunning reports whether the sensitive app ran this tick.
	SensitiveRunning bool
	// Utilization is machine CPU utilization in [0,1] this tick.
	Utilization float64
	// BatchCPUShare is the batch containers' granted CPU as a fraction of
	// capacity — the "gained utilization" contribution.
	BatchCPUShare float64
	// BatchRunning reports whether any batch container ran this tick.
	BatchRunning bool
	// Throttled reports whether batch containers were frozen at the end of
	// the tick.
	Throttled bool
	// Mode, Coord and Action mirror the runtime event (zero values without
	// Stay-Away).
	Mode   trajectory.Mode
	Coord  mds.Coord
	Action throttle.Action
	// Predicted marks a predicted impending violation.
	Predicted bool
}

// RunResult is a completed scenario.
type RunResult struct {
	Scenario Scenario
	Records  []TickRecord
	// Report is the runtime's aggregate report (zero without Stay-Away).
	Report core.Report
	// Events are the runtime's per-period events (nil without Stay-Away).
	Events []core.Event
	// Runtime is the live runtime (nil without Stay-Away), exposed for
	// template export and model inspection.
	Runtime *core.Runtime
	// BatchWork is the total effective CPU the batch containers performed.
	BatchWork float64
	// AvgUtilization is the mean machine utilization over the run.
	AvgUtilization float64
}

// Run executes the scenario.
func Run(sc Scenario) (*RunResult, error) {
	if sc.Ticks <= 0 {
		return nil, fmt.Errorf("experiments: Ticks must be positive, got %d", sc.Ticks)
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

	var qosApp sim.QoSApp
	var sensitiveRNG *rand.Rand
	if sc.Sensitive != nil {
		if sc.SensitiveID == "" {
			return nil, fmt.Errorf("experiments: SensitiveID required with a sensitive app")
		}
		sensitiveRNG = rand.New(rand.NewSource(appSeed()))
	}

	serviceIDs := make([]string, 0, len(sc.Services))
	serviceRNGs := make([]*rand.Rand, len(sc.Services))
	for i, p := range sc.Services {
		if p.ID == "" || p.App == nil {
			return nil, fmt.Errorf("experiments: service placement %d incomplete", i)
		}
		serviceIDs = append(serviceIDs, p.ID)
		serviceRNGs[i] = rand.New(rand.NewSource(appSeed()))
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

	var rt *core.Runtime
	var env *SimEnvironment
	if sc.StayAway {
		if sc.Sensitive == nil {
			return nil, fmt.Errorf("experiments: Stay-Away needs a sensitive application")
		}
		cfg := core.DefaultConfig(sc.SensitiveID, batchIDs, metrics.DefaultRanges(
			host.Cores, host.MemoryMB, host.DiskMBps, host.NetMbps))
		cfg.Seed = appSeed()
		cfg.DisableActions = sc.DisableActions
		if sc.Tune != nil {
			sc.Tune(&cfg)
		}
		// env is created after the sensitive app exists; placeholder below.
		env = NewSimEnvironment(simulator, sc.SensitiveID, batchIDs, nil)
		env.AddServiceIDs(serviceIDs...)
		rt, err = core.New(cfg, env, NewSimActuator(simulator))
		if err != nil {
			return nil, err
		}
		if sc.Template != nil {
			if err := rt.ImportTemplate(sc.Template); err != nil {
				return nil, err
			}
		}
	}

	res := &RunResult{Scenario: sc, Runtime: rt}
	for tick := 0; tick < sc.Ticks; tick++ {
		// Schedule containers whose start time has come.
		if sc.Sensitive != nil && tick == sc.SensitiveStart {
			qosApp = sc.Sensitive(sensitiveRNG)
			if _, err := simulator.AddContainer(sc.SensitiveID, qosApp); err != nil {
				return nil, err
			}
			if env != nil {
				env.qosApp = qosApp
			}
		}
		for i, p := range sc.Services {
			if tick == p.StartTick {
				if _, err := simulator.AddContainer(p.ID, p.App(serviceRNGs[i])); err != nil {
					return nil, err
				}
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

		rec := TickRecord{Tick: tick, Utilization: simulator.LastTickUtilization()}
		if qosApp != nil {
			if c, err := simulator.Container(sc.SensitiveID); err == nil && c.Running() {
				rec.SensitiveRunning = true
				rec.QoS, rec.Threshold = qosApp.QoS()
				rec.Violation = rec.QoS < rec.Threshold
			}
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

		if rt != nil {
			ev, err := rt.Period()
			if err != nil {
				return nil, fmt.Errorf("experiments: period %d: %w", tick, err)
			}
			res.Events = append(res.Events, ev)
			rec.Throttled = ev.Throttled
			rec.Mode = ev.Mode
			rec.Coord = ev.Coord
			rec.Action = ev.Action
			rec.Predicted = ev.Predicted
		}
		res.Records = append(res.Records, rec)
	}

	for _, id := range batchIDs {
		if c, err := simulator.Container(id); err == nil {
			res.BatchWork += c.TotalEffectiveCPU()
		}
	}
	res.AvgUtilization = simulator.Utilization()
	if rt != nil {
		res.Report = rt.Report()
	}
	return res, nil
}
