package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The scenario zoo: open-loop workload classes run at the scale the
// closed-loop figures cannot express. Each class replays an arrival
// pattern against a co-located aggressor twice — unprotected and under
// Stay-Away — and reports the violation rate and the utilization gained
// from the co-location. The open-vs-closed ablation runs the *same*
// throttle schedule against both QoS models to expose the violations the
// grant-ratio view structurally cannot see.

// OpenClosedResult is the open-loop vs closed-loop QoS ablation outcome.
type OpenClosedResult struct {
	// Ticks is the schedule length.
	Ticks int
	// ClosedViolations and OpenViolations count QoS violations each model
	// registered under the identical throttle schedule.
	ClosedViolations int
	OpenViolations   int
	// PeakBacklog is the open-loop queue's maximum depth — the state the
	// closed-loop model does not have.
	PeakBacklog float64
}

// ZooRow is one scenario class's outcome.
type ZooRow struct {
	// Class names the scenario class.
	Class string
	// Ticks is the run length; TraceDays is the replayed trace span in
	// days (0 when the arrival process is synthetic).
	Ticks     int
	TraceDays float64
	// UnprotectedRate and ProtectedRate are QoS-violation rates without
	// and with Stay-Away.
	UnprotectedRate float64
	ProtectedRate   float64
	// UnprotectedUtil and ProtectedUtil are mean machine utilizations.
	UnprotectedUtil float64
	ProtectedUtil   float64
	// UtilizationGain is the protected run's mean batch CPU share — the
	// utilization the co-location adds over running the service alone.
	UtilizationGain float64
	// BatchWork is the protected run's total effective batch CPU.
	BatchWork float64
	// ReactiveRate and ReactiveWork are the violation rate and batch work
	// of Stay-Away with its forecast off (the reactive reference).
	ReactiveRate float64
	ReactiveWork float64
}

// ZooReport is the scenario-zoo suite outcome the CI gate inspects.
type ZooReport struct {
	Ablation OpenClosedResult
	Rows     []ZooRow
}

// mustOpenLoop builds an open-loop service from a statically-known-valid
// config; construction only fails on programming errors.
func mustOpenLoop(cfg apps.OpenLoopConfig) *apps.OpenLoopService {
	svc, err := apps.NewOpenLoopService(cfg)
	if err != nil {
		panic(err)
	}
	return svc
}

// OpenVsClosed drives the closed-loop Webservice and an open-loop service
// carrying the same load shape through an identical throttle schedule on
// identical (separate) hosts: a mild cpu.max quota of 0.91 for 120 ticks.
//
// The closed-loop QoS is the grant/demand ratio, so the quota pins it at
// exactly 0.91 — above its 0.9 threshold, zero violations, nothing to see.
// The open-loop service cannot serve its arrival rate at 91% capacity, so
// its backlog grows for the whole throttled window and its p99 latency
// blows the SLO — violations that persist after the quota lifts, until the
// backlog drains. Same actuation, opposite verdicts; only the open-loop
// one matches what a latency SLO would say in production.
func OpenVsClosed(seed int64) (*OpenClosedResult, error) {
	const (
		ticks       = 400
		quotaStart  = 100
		quotaEnd    = 220
		quota       = 0.91
		arrivalRate = 24
	)

	closed := apps.NewWebservice(apps.WebserviceConfig{
		Kind:      apps.CPUIntensive,
		Intensity: apps.ArrivalIntensity(workload.Constant(arrivalRate), 30),
		Threshold: 0.9,
	}, nil)
	open := mustOpenLoop(apps.OpenLoopConfig{
		Kind: apps.CPUIntensive,
		Engine: workload.Config{
			Process:        workload.Constant(arrivalRate),
			CPUPerRequest:  2,
			MaxConcurrency: 26, // 8% headroom: a 0.91 quota starves it
			TargetLatency:  3,
			WindowTicks:    40,
			Threshold:      0.95,
		},
	})

	simClosed, err := sim.NewSimulator(sim.DefaultHostConfig())
	if err != nil {
		return nil, err
	}
	simOpen, err := sim.NewSimulator(sim.DefaultHostConfig())
	if err != nil {
		return nil, err
	}
	if _, err := simClosed.AddContainer("svc", closed); err != nil {
		return nil, err
	}
	if _, err := simOpen.AddContainer("svc", open); err != nil {
		return nil, err
	}

	res := OpenClosedResult{Ticks: ticks}
	for tick := 0; tick < ticks; tick++ {
		for _, s := range []*sim.Simulator{simClosed, simOpen} {
			switch tick {
			case quotaStart:
				if err := s.LimitCPU("svc", quota); err != nil {
					return nil, err
				}
			case quotaEnd:
				if err := s.LimitCPU("svc", 1); err != nil {
					return nil, err
				}
			}
			s.Step()
		}
		if v, thr := closed.QoS(); v < thr {
			res.ClosedViolations++
		}
		if v, thr := open.QoS(); v < thr {
			res.OpenViolations++
		}
		if d := open.Engine().Stats().Depth; d > res.PeakBacklog {
			res.PeakBacklog = d
		}
	}
	return &res, nil
}

// runZooPair runs one scenario class unprotected, under Stay-Away and
// under its reactive arm with the same seed and summarizes the runs.
func runZooPair(base Scenario, traceDays float64) (ZooRow, error) {
	row := ZooRow{Class: base.Name, Ticks: base.Ticks, TraceDays: traceDays}

	un := base
	un.Name = base.Name + "-unprotected"
	un.StayAway = false
	resUn, err := Run(un)
	if err != nil {
		return row, fmt.Errorf("%s: %w", un.Name, err)
	}

	pr := base
	pr.Name = base.Name + "-stayaway"
	pr.StayAway = true
	resPr, err := Run(pr)
	if err != nil {
		return row, fmt.Errorf("%s: %w", pr.Name, err)
	}

	re := pr
	re.Name = base.Name + "-reactive"
	re.Tune = reactive
	resRe, err := Run(re)
	if err != nil {
		return row, fmt.Errorf("%s: %w", re.Name, err)
	}

	row.UnprotectedRate = Violations(resUn.Records).Rate
	row.ProtectedRate = Violations(resPr.Records).Rate
	row.UnprotectedUtil = resUn.AvgUtilization
	row.ProtectedUtil = resPr.AvgUtilization
	row.UtilizationGain = Mean(GainSeries(resPr.Records))
	row.BatchWork = resPr.BatchWork
	row.ReactiveRate = Violations(resRe.Records).Rate
	row.ReactiveWork = resRe.BatchWork
	return row, nil
}

// zooDiurnal: a Poisson-modulated day/night cycle against the memory bomb
// — the paper's gradual-transition interference, at open loop.
func zooDiurnal(seed int64) (ZooRow, error) {
	return runZooPair(Scenario{
		Name:        "diurnal",
		SensitiveID: "web",
		Sensitive: func(rng *rand.Rand) sim.QoSApp {
			// Mixed kind: active working set scales with load, so the
			// memory bomb's read bursts push the host into swap at the
			// diurnal peaks — the interference is time-of-day dependent.
			return mustOpenLoop(apps.DefaultOpenLoopConfig(apps.Mixed,
				workload.NewPoisson(workload.Diurnal{
					Base:        70,
					Amplitude:   0.6,
					PeriodTicks: 144, // one simulated day
					PeakTick:    72,
				}, rng)))
		},
		Batch: []Placement{{ID: "membomb", StartTick: 40, App: memoryBombApp}},
		Ticks: 432, // three simulated days
		Seed:  seed,
	}, 3)
}

// zooFlash: a multi-day flash-crowd trace generated by the tracegen path
// (GenerateFlash → CSV-equivalent points → TraceReplay) against the CPU
// bomb. The surge itself is within service capacity; what pushes it over
// is the aggressor — which Stay-Away throttles.
func zooFlash(seed int64) (ZooRow, error) {
	fc := trace.FlashConfig{
		Base: trace.Config{
			Days:           3,
			SamplesPerHour: 2,
			BaseRate:       2600,
			DailyAmplitude: 0.45,
			PeakHour:       14,
			Noise:          0.03,
		},
		Multiplier: 2.5,
		StartHour:  30,
		RampHours:  2,
		HoldHours:  4,
		DecayHours: 6,
	}
	pts, err := trace.GenerateFlash(fc, rand.New(rand.NewSource(seed)))
	if err != nil {
		return ZooRow{}, err
	}
	// 2600 req/s baseline → ~30 req/tick for this service's share.
	replay, err := workload.NewTraceReplay(pts, 30.0/2600, 3)
	if err != nil {
		return ZooRow{}, err
	}
	return runZooPair(Scenario{
		Name:        "flash-crowd",
		SensitiveID: "web",
		Sensitive: func(rng *rand.Rand) sim.QoSApp {
			return mustOpenLoop(apps.DefaultOpenLoopConfig(apps.CPUIntensive, replay))
		},
		Batch: []Placement{{ID: "cpubomb", StartTick: 30, App: cpuBombApp}},
		Ticks: replay.Ticks(),
		Seed:  seed,
	}, float64(fc.Base.Days))
}

// zooChain: a three-stage microservice chain whose QoS is end-to-end
// latency, with Twitter-Analysis's alternating phases as the aggressor.
// The downstream stages ride in Services placements: their usage
// aggregates into the sensitive schema slot and the front stage reports
// the one QoS signal.
func zooChain(seed int64) (ZooRow, error) {
	// One chain instance per run: the Sensitive builder constructs a fresh
	// chain and stashes the downstream stages for the Services builders,
	// which Run always invokes after the sensitive app (StartTick 0 order).
	build := func() (*apps.ChainFront, []*apps.ChainStage) {
		f, r, err := apps.NewChainService("chain", workload.ChainConfig{
			Process: workload.Constant(40),
			Stages: []workload.StageConfig{
				{CPUPerRequest: 2, MaxConcurrency: 60},
				{CPUPerRequest: 1, MaxConcurrency: 60},
				{CPUPerRequest: 1, MaxConcurrency: 60},
			},
			// Three hops minimum = 3 ticks end to end; a 5-tick SLO leaves
			// room for one queued tick per stage, no more.
			TargetLatency: 5,
			WindowTicks:   40,
			Threshold:     0.95,
		})
		if err != nil {
			panic(err) // statically-valid config
		}
		return f, r
	}

	var cur *apps.ChainFront
	var curRest []*apps.ChainStage
	return runZooPair(Scenario{
		Name:        "microservice-chain",
		SensitiveID: "chain-stage0",
		Sensitive: func(rng *rand.Rand) sim.QoSApp {
			cur, curRest = build()
			return cur
		},
		Services: []Placement{
			{ID: "chain-stage1", App: func(rng *rand.Rand) sim.App { return curRest[0] }},
			{ID: "chain-stage2", App: func(rng *rand.Rand) sim.App { return curRest[1] }},
		},
		Batch: []Placement{{ID: "twitter", StartTick: 40, App: twitterApp}},
		Ticks: 400,
		Seed:  seed,
	}, 0)
}

// zooBurstyIO: a storage-coupled open-loop service against the bursty
// compaction batch. The aggressor barely touches CPU — the interference
// channel is disk — so the grant-ratio QoS would sleep through it.
func zooBurstyIO(seed int64) (ZooRow, error) {
	return runZooPair(Scenario{
		Name:        "bursty-io-batch",
		SensitiveID: "web",
		Sensitive: func(rng *rand.Rand) sim.QoSApp {
			cfg := apps.DefaultOpenLoopConfig(apps.CPUIntensive, workload.Constant(40))
			cfg.DiskPerRequest = 4
			cfg.Engine.TargetLatency = 2
			return mustOpenLoop(cfg)
		},
		Batch: []Placement{{
			ID:        "compactor",
			StartTick: 30,
			App: func(rng *rand.Rand) sim.App {
				return apps.NewIOBurstBatch(apps.DefaultIOBurstConfig(), rng)
			},
		}},
		Ticks: 400,
		Seed:  seed,
	}, 0)
}

// ScenarioZoo runs the open-vs-closed ablation and every scenario class.
func ScenarioZoo(seed int64) (*Figure, *ZooReport, error) {
	ablation, err := OpenVsClosed(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("open-vs-closed ablation: %w", err)
	}
	report := &ZooReport{Ablation: *ablation}
	for _, gen := range []func(int64) (ZooRow, error){zooDiurnal, zooFlash, zooChain, zooBurstyIO} {
		row, err := gen(seed)
		if err != nil {
			return nil, nil, err
		}
		report.Rows = append(report.Rows, row)
	}

	var b strings.Builder
	b.WriteString("Scenario zoo — open-loop workload classes (unprotected vs Stay-Away)\n\n")
	fmt.Fprintf(&b, "Open-vs-closed ablation (identical 0.91 cpu.max quota for 120 ticks):\n")
	fmt.Fprintf(&b, "  closed-loop grant-ratio QoS violations: %d\n", report.Ablation.ClosedViolations)
	fmt.Fprintf(&b, "  open-loop p99-latency QoS violations:   %d  (peak backlog %.0f requests)\n\n",
		report.Ablation.OpenViolations, report.Ablation.PeakBacklog)
	fmt.Fprintf(&b, "  %-20s %6s %6s   %-10s %-10s %-10s %s\n",
		"class", "ticks", "days", "viol(un)", "viol(SA)", "util gain", "batch work")
	for _, r := range report.Rows {
		days := "-"
		if r.TraceDays > 0 {
			days = fmt.Sprintf("%.0f", r.TraceDays)
		}
		fmt.Fprintf(&b, "  %-20s %6d %6s   %-10.3f %-10.3f %-10.3f %.0f\n",
			r.Class, r.Ticks, days, r.UnprotectedRate, r.ProtectedRate, r.UtilizationGain, r.BatchWork)
	}

	summary := map[string]float64{
		"ablation_closed_violations": float64(report.Ablation.ClosedViolations),
		"ablation_open_violations":   float64(report.Ablation.OpenViolations),
		"ablation_peak_backlog":      report.Ablation.PeakBacklog,
	}
	for _, r := range report.Rows {
		key := strings.ReplaceAll(r.Class, "-", "_")
		summary[key+"_unprotected_rate"] = r.UnprotectedRate
		summary[key+"_protected_rate"] = r.ProtectedRate
		summary[key+"_utilization_gain"] = r.UtilizationGain
		summary[key+"_batch_work"] = r.BatchWork
		summary[key+"_reactive_rate"] = r.ReactiveRate
		summary[key+"_reactive_work"] = r.ReactiveWork
	}
	return &Figure{
		ID:      "scenario-zoo",
		Title:   "Open-loop scenario zoo",
		Text:    b.String(),
		Summary: summary,
	}, report, nil
}
