package stayaway_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per experiment; see DESIGN.md §4 for the
// index) and runs the ablations DESIGN.md §5 calls out. Figure benchmarks
// report their headline summary values as custom metrics so `go test
// -bench` output doubles as a results table; the shape assertions
// themselves live in internal/experiments tests.

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

const benchSeed = 42

// benchFigure runs one figure generator per iteration and reports the
// chosen summary keys as custom metrics.
func benchFigure(b *testing.B, gen func(int64) (*experiments.Figure, error), keys ...string) {
	b.Helper()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := gen(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	for _, k := range keys {
		if v, ok := last.Summary[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkFig01WikipediaTrace(b *testing.B) {
	benchFigure(b, experiments.Fig01, "ratio")
}

func BenchmarkFig04ViolationRange(b *testing.B) {
	benchFigure(b, func(int64) (*experiments.Figure, error) { return experiments.Fig04() }, "peak_d", "peak_r")
}

func BenchmarkFig05ExecutionModes(b *testing.B) {
	benchFigure(b, experiments.Fig05, "modes_seen", "states")
}

func BenchmarkFig06Instantaneous(b *testing.B) {
	benchFigure(b, experiments.Fig06, "violation_states", "max_jump")
}

func BenchmarkFig07Gradual(b *testing.B) {
	benchFigure(b, experiments.Fig07, "throttled_ticks", "pauses")
}

func BenchmarkFig08VLCvsCPUBomb(b *testing.B) {
	benchFigure(b, experiments.Fig08, "violation_rate_noprev", "violation_rate_stayaway")
}

func BenchmarkFig09VLCvsTwitter(b *testing.B) {
	benchFigure(b, experiments.Fig09, "violation_rate_noprev", "violation_rate_stayaway")
}

func BenchmarkFig10UtilCPUBomb(b *testing.B) {
	benchFigure(b, experiments.Fig10, "gain_noprev", "gain_stayaway")
}

func BenchmarkFig11UtilTwitter(b *testing.B) {
	benchFigure(b, experiments.Fig11, "gain_noprev", "gain_stayaway")
}

func BenchmarkFig12WebserviceUtil(b *testing.B) {
	benchFigure(b, experiments.Fig12,
		"gain_Twitter_memory-intensive", "gain_CPUBomb_cpu-intensive")
}

func BenchmarkFig13Timeline(b *testing.B) {
	benchFigure(b, experiments.Fig13,
		"a_low_intensity_run", "a_high_intensity_run")
}

func BenchmarkFig14WebserviceMix(b *testing.B) {
	benchFigure(b, experiments.Fig14, "viol_Twitter", "viol_CPUBomb")
}

func BenchmarkFig15WebserviceCPU(b *testing.B) {
	benchFigure(b, experiments.Fig15, "viol_Twitter", "viol_CPUBomb")
}

func BenchmarkFig16WebserviceMemory(b *testing.B) {
	benchFigure(b, experiments.Fig16, "viol_Twitter", "viol_MemoryBomb")
}

func BenchmarkFig17Template(b *testing.B) {
	benchFigure(b, func(s int64) (*experiments.Figure, error) {
		f, _, err := experiments.Fig17(s)
		return f, err
	}, "states", "violation_states")
}

func BenchmarkFig18TemplateReuse(b *testing.B) {
	benchFigure(b, experiments.Fig18, "in_region_fraction", "violations")
}

func BenchmarkSummary10to70(b *testing.B) {
	benchFigure(b, experiments.Summary, "min_gain", "max_gain")
}

func BenchmarkMultiTenantConflict(b *testing.B) {
	benchFigure(b, experiments.MultiTenant,
		"batch_retained", "viol_ratio_vlc-transcode", "viol_ratio_webservice")
}

// --- Ablations (DESIGN.md §5) ---

// accuracyScenario runs VLC+Twitter observe-only and returns one-period-
// ahead prediction accuracy and recall under the given runtime tuning.
func accuracyScenario(b *testing.B, tune func(*core.Config)) (accuracy, recall float64) {
	b.Helper()
	res, err := experiments.Run(experiments.Scenario{
		Name:        "ablation-accuracy",
		SensitiveID: "vlc",
		Sensitive: func(rng *rand.Rand) sim.QoSApp {
			return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
		},
		Batch: []experiments.Placement{{ID: "twitter", StartTick: 20, App: func(rng *rand.Rand) sim.App {
			cfg := apps.DefaultTwitterConfig()
			cfg.TotalWork = 0
			return apps.NewTwitterAnalysis(cfg, rng)
		}}},
		Ticks:          400,
		Seed:           benchSeed,
		StayAway:       true,
		DisableActions: true, // observe-only: score predictions against truth
		Tune:           tune,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Report.Accuracy, res.Report.Recall
}

// BenchmarkAblationSampleCount sweeps the predictor's candidate-sample
// count (the paper uses 5 and claims >90% accuracy).
func BenchmarkAblationSampleCount(b *testing.B) {
	for _, n := range []int{1, 3, 5, 9} {
		b.Run(map[int]string{1: "samples=1", 3: "samples=3", 5: "samples=5", 9: "samples=9"}[n],
			func(b *testing.B) {
				var acc, rec float64
				for i := 0; i < b.N; i++ {
					acc, rec = accuracyScenario(b, func(c *core.Config) {
						c.Predictor.Samples = n
					})
				}
				b.ReportMetric(acc, "accuracy")
				b.ReportMetric(rec, "recall")
			})
	}
}

// BenchmarkAblationPerMode compares per-execution-mode trajectory models
// against the single global model the paper reports as inaccurate.
func BenchmarkAblationPerMode(b *testing.B) {
	b.Run("per-mode", func(b *testing.B) {
		var acc, rec float64
		for i := 0; i < b.N; i++ {
			acc, rec = accuracyScenario(b, nil)
		}
		b.ReportMetric(acc, "accuracy")
		b.ReportMetric(rec, "recall")
	})
	b.Run("single-model", func(b *testing.B) {
		var acc, rec float64
		for i := 0; i < b.N; i++ {
			acc, rec = accuracyScenario(b, func(c *core.Config) { c.SingleModel = true })
		}
		b.ReportMetric(acc, "accuracy")
		b.ReportMetric(rec, "recall")
	})
}

// BenchmarkAblationDedup measures the §4 representative-sample reduction:
// embedding cost with and without ε-merging over a realistic sample
// stream.
func BenchmarkAblationDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	// A stream with heavy revisiting: 600 samples around 12 true states.
	centers := make([][]float64, 12)
	for i := range centers {
		c := make([]float64, 8)
		for d := range c {
			c[d] = rng.Float64()
		}
		centers[i] = c
	}
	samples := make([][]float64, 600)
	for i := range samples {
		c := centers[rng.Intn(len(centers))]
		s := make([]float64, 8)
		for d := range s {
			s[d] = stats.Clamp(c[d]+rng.NormFloat64()*0.005, 0, 1)
		}
		samples[i] = s
	}
	embed := func(eps float64) int {
		red := mds.NewOnlineReducer(eps)
		for _, s := range samples {
			red.Observe(s)
		}
		delta, err := mds.DistanceMatrix(red.Representatives())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mds.SMACOF(delta, mds.DefaultOptions(rand.New(rand.NewSource(1)))); err != nil {
			b.Fatal(err)
		}
		return red.Len()
	}
	b.Run("dedup-on", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = embed(0.05)
		}
		b.ReportMetric(float64(n), "states")
	})
	b.Run("dedup-off", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = embed(0)
		}
		b.ReportMetric(float64(n), "states")
	})
}

// BenchmarkAblationIncremental compares incremental single-point placement
// against a full SMACOF re-run for each arriving state.
func BenchmarkAblationIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	vectors := make([][]float64, 60)
	for i := range vectors {
		v := make([]float64, 8)
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors[i] = v
	}
	anchors := vectors[:59]
	delta, err := mds.DistanceMatrix(anchors)
	if err != nil {
		b.Fatal(err)
	}
	base, err := mds.SMACOF(delta, mds.DefaultOptions(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	newDelta := make([]float64, len(anchors))
	for i, v := range anchors {
		newDelta[i] = mds.Euclidean(vectors[59], v)
	}
	b.Run("incremental-place", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := mds.Place(base.Config, newDelta, mds.PlaceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-smacof", func(b *testing.B) {
		full, err := mds.DistanceMatrix(vectors)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := mds.SMACOF(full, mds.DefaultOptions(rand.New(rand.NewSource(1)))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRange compares the Rayleigh violation-range against a
// fixed-radius policy, reporting suffered violations and batch gain.
func BenchmarkAblationRange(b *testing.B) {
	runWith := func(policy statespace.RangePolicy) (violRate, gain float64) {
		res, err := experiments.Run(experiments.Scenario{
			Name:        "ablation-range",
			SensitiveID: "vlc",
			Sensitive: func(rng *rand.Rand) sim.QoSApp {
				return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
			},
			Batch: []experiments.Placement{{ID: "twitter", StartTick: 20, App: func(rng *rand.Rand) sim.App {
				cfg := apps.DefaultTwitterConfig()
				cfg.TotalWork = 0
				return apps.NewTwitterAnalysis(cfg, rng)
			}}},
			Ticks:    300,
			Seed:     benchSeed,
			StayAway: true,
			Tune:     func(c *core.Config) { c.RangePolicy = policy },
		})
		if err != nil {
			b.Fatal(err)
		}
		return experiments.Violations(res.Records).Rate,
			experiments.Mean(experiments.GainSeries(res.Records))
	}
	cases := []struct {
		name   string
		policy statespace.RangePolicy
	}{
		{"rayleigh", nil},
		{"fixed-tiny", func(d, c float64) float64 { return 0.01 }},
		{"fixed-large", func(d, c float64) float64 { return 0.3 }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var v, g float64
			for i := 0; i < b.N; i++ {
				v, g = runWith(tc.policy)
			}
			b.ReportMetric(v, "violation_rate")
			b.ReportMetric(g, "gain")
		})
	}
}

// BenchmarkAblationAggregation compares §5's logical-VM batch aggregation
// against per-container schemas with two batch co-runners, reporting the
// final embedding stress.
func BenchmarkAblationAggregation(b *testing.B) {
	runWith := func(disable bool) float64 {
		res, err := experiments.Run(experiments.Scenario{
			Name:        "bench-aggregation",
			SensitiveID: "vlc",
			Sensitive: func(rng *rand.Rand) sim.QoSApp {
				return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
			},
			Batch: []experiments.Placement{
				{ID: "b1", StartTick: 20, App: func(rng *rand.Rand) sim.App {
					cfg := apps.DefaultTwitterConfig()
					cfg.TotalWork = 0
					return apps.NewTwitterAnalysis(cfg, rng)
				}},
				{ID: "b2", StartTick: 25, App: func(rng *rand.Rand) sim.App {
					cfg := apps.DefaultSoplexConfig()
					cfg.TotalWork = 0
					return apps.NewSoplex(cfg, rng)
				}},
			},
			Ticks:    250,
			Seed:     benchSeed,
			StayAway: true,
			Tune:     func(c *core.Config) { c.DisableBatchAggregation = disable },
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Report.LastStress
	}
	b.Run("aggregated", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s = runWith(false)
		}
		b.ReportMetric(s, "stress")
	})
	b.Run("per-container", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s = runWith(true)
		}
		b.ReportMetric(s, "stress")
	})
}

// BenchmarkAblationGraded compares the paper's binary pause/resume policy
// against graded cpu.max-style quota stepping: equal-or-fewer violations
// while retaining more batch throughput (work_retention > 1).
func BenchmarkAblationGraded(b *testing.B) {
	benchFigure(b, experiments.AblationGraded,
		"violations_binary", "violations_graded", "work_retention")
}

// BenchmarkScenarioZoo runs the open-loop scenario-zoo suite (the
// -scenarios CI gate) and reports the open-vs-closed ablation gap.
func BenchmarkScenarioZoo(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, _, err := experiments.ScenarioZoo(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		fig = f
	}
	for _, k := range []string{"ablation_open_violations", "ablation_closed_violations", "ablation_peak_backlog"} {
		if v, ok := fig.Summary[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkReplayMultiDay replays a 30-day diurnal trace through a full
// Stay-Away scenario — open-loop service under trace-replay arrivals, CPU
// bomb aggressor, runtime active every tick. The PR's throughput floor:
// the whole replay must finish in well under 10 seconds.
func BenchmarkReplayMultiDay(b *testing.B) {
	cfg := trace.Config{
		Days:           30,
		SamplesPerHour: 2,
		BaseRate:       2600,
		DailyAmplitude: 0.45,
		PeakHour:       14,
		Noise:          0.05,
	}
	pts, err := trace.Generate(cfg, rand.New(rand.NewSource(benchSeed)))
	if err != nil {
		b.Fatal(err)
	}
	replay, err := workload.NewTraceReplay(pts, 30.0/2600, 3)
	if err != nil {
		b.Fatal(err)
	}
	ticks := replay.Ticks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Scenario{
			Name:        "bench-replay",
			SensitiveID: "web",
			Sensitive: func(rng *rand.Rand) sim.QoSApp {
				svc, err := apps.NewOpenLoopService(apps.DefaultOpenLoopConfig(apps.CPUIntensive, replay))
				if err != nil {
					b.Fatal(err)
				}
				return svc
			},
			Batch: []experiments.Placement{{ID: "cpubomb", StartTick: 30, App: func(rng *rand.Rand) sim.App {
				return apps.NewCPUBomb(apps.DefaultCPUBombConfig())
			}}},
			Ticks:    ticks,
			Seed:     benchSeed,
			StayAway: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != ticks {
			b.Fatalf("replayed %d ticks, want %d", len(res.Records), ticks)
		}
	}
	b.ReportMetric(float64(cfg.Days), "trace_days")
	b.ReportMetric(float64(ticks), "ticks")
}

// BenchmarkOverheadControllerStep measures the cost of one full Stay-Away
// period (collect → map → predict → act) in a steady co-located state —
// the paper reports ≈2% CPU for a 1-second monitoring period, i.e. a
// budget of 20ms/period.
func BenchmarkOverheadControllerStep(b *testing.B) {
	host := sim.DefaultHostConfig()
	simulator, err := sim.NewSimulator(host)
	if err != nil {
		b.Fatal(err)
	}
	vlc := apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rand.New(rand.NewSource(1)))
	if _, err := simulator.AddContainer("vlc", vlc); err != nil {
		b.Fatal(err)
	}
	twCfg := apps.DefaultTwitterConfig()
	twCfg.TotalWork = 0
	if _, err := simulator.AddContainer("tw", apps.NewTwitterAnalysis(twCfg, rand.New(rand.NewSource(2)))); err != nil {
		b.Fatal(err)
	}
	env := experiments.NewSimEnvironment(simulator, "vlc", []string{"tw"}, vlc)
	cfg := core.DefaultConfig("vlc", []string{"tw"},
		metrics.DefaultRanges(host.Cores, host.MemoryMB, host.DiskMBps, host.NetMbps))
	rt, err := core.New(cfg, env, experiments.NewSimActuator(simulator))
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: populate the state space.
	for i := 0; i < 100; i++ {
		simulator.Step()
		if _, err := rt.Period(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulator.Step()
		if _, err := rt.Period(); err != nil {
			b.Fatal(err)
		}
	}
}
