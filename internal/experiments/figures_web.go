package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/trace"
)

// batchCombo names one batch workload column of Figs 12 and 14–16,
// including the Table 1 combinations.
type batchCombo struct {
	name       string
	placements []Placement
}

// batchCombos returns the evaluation's batch columns: the four single
// applications plus Table 1's Batch-1 (Twitter+Soplex) and Batch-2
// (Twitter+MemoryBomb), each batch application in its own container.
func batchCombos() []batchCombo {
	return []batchCombo{
		{"Soplex", []Placement{{ID: "b1", StartTick: 20, App: soplexApp}}},
		{"Twitter", []Placement{{ID: "b1", StartTick: 20, App: twitterApp}}},
		{"CPUBomb", []Placement{{ID: "b1", StartTick: 20, App: cpuBombApp}}},
		{"MemoryBomb", []Placement{{ID: "b1", StartTick: 20, App: memoryBombApp}}},
		{"Batch-1", []Placement{
			{ID: "b1", StartTick: 20, App: twitterApp},
			{ID: "b2", StartTick: 25, App: soplexApp},
		}},
		{"Batch-2", []Placement{
			{ID: "b1", StartTick: 20, App: twitterApp},
			{ID: "b2", StartTick: 25, App: memoryBombApp},
		}},
	}
}

// webKinds are the three Webservice workload types.
var webKinds = []apps.WorkloadKind{apps.CPUIntensive, apps.MemoryIntensive, apps.Mixed}

// DiurnalIntensity drives the Webservice with the Fig 1 trace shape, one
// trace hour per tick, covering at least the given number of ticks.
func DiurnalIntensity(seed int64, ticks int) (apps.Intensity, error) {
	cfg := trace.DefaultConfig()
	cfg.Days = ticks/24 + 1
	pts, err := trace.Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return apps.SeriesIntensity(trace.Normalize(pts)), nil
}

// Fig12 regenerates Figure 12: gained utilization when the Webservice is
// co-located with each batch application (and the Table 1 combinations),
// per workload type, with Stay-Away active. The Webservice is driven by
// the diurnal trace, matching the paper's naturally varying workload —
// the low-intensity valleys are where Stay-Away lets the batch
// applications through.
func Fig12(seed int64) (*Figure, error) { return fig12(seed, nil) }

func fig12(seed int64, tune func(*core.Config)) (*Figure, error) {
	const ticks = 300
	intensity, err := DiurnalIntensity(seed, ticks)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	summary := map[string]float64{}
	b.WriteString("Fig 12 — mean gained utilization (%) with Stay-Away, Webservice × batch app\n\n")
	fmt.Fprintf(&b, "%-18s", "batch \\ workload")
	for _, k := range webKinds {
		fmt.Fprintf(&b, "%18s", k)
	}
	b.WriteString("\n")

	for _, combo := range batchCombos() {
		fmt.Fprintf(&b, "%-18s", combo.name)
		for _, kind := range webKinds {
			res, err := Run(Scenario{
				Name:        fmt.Sprintf("fig12-%s-%s", combo.name, kind),
				SensitiveID: "web",
				Sensitive:   webserviceApp(kind, intensity),
				Batch:       combo.placements,
				Ticks:       ticks,
				Seed:        seed,
				StayAway:    true,
				Tune:        tune,
			})
			if err != nil {
				return nil, err
			}
			gain := Mean(GainSeries(res.Records))
			vs := Violations(res.Records)
			fmt.Fprintf(&b, "%13.1f%% v%2.0f%%", 100*gain, 100*vs.Rate)
			summary[fmt.Sprintf("gain_%s_%s", combo.name, kind)] = gain
			summary[fmt.Sprintf("viol_%s_%s", combo.name, kind)] = vs.Rate
		}
		b.WriteString("\n")
	}
	b.WriteString("\n(each cell: mean gained utilization, vNN% = QoS violation rate)\n")
	return &Figure{
		ID:      "fig12",
		Title:   "Gained utilization: Webservice × batch applications",
		Text:    b.String(),
		Summary: summary,
	}, nil
}

// Fig13 regenerates Figure 13: the execution timeline of the Webservice
// co-located with Twitter-Analysis under a varying workload. 13a uses the
// CPU-intensive workload; 13b uses the mixed workload with a deliberate
// phase change. The rendering shows the stress on the Webservice
// (1 − normalized QoS), the workload intensity, and the throttle band.
func Fig13(seed int64) (*Figure, error) {
	const ticks = 120
	sub := func(id string, kind apps.WorkloadKind, intensity apps.Intensity, title string) (string, map[string]float64, error) {
		res, err := Run(Scenario{
			Name:        id,
			SensitiveID: "web",
			Sensitive:   webserviceApp(kind, intensity),
			Batch:       []Placement{{ID: "twitter", StartTick: 10, App: twitterApp}},
			Ticks:       ticks,
			Seed:        seed,
			StayAway:    true,
		})
		if err != nil {
			return "", nil, err
		}
		stress := make([]float64, len(res.Records))
		intens := make([]float64, len(res.Records))
		for i, r := range res.Records {
			q := QoSSeries(res.Records)[i]
			if r.SensitiveRunning {
				stress[i] = 1 - minF(q, 1)
			}
			intens[i] = intensity(i)
		}
		throttle := ThrottleSeries(res.Records)
		var sb strings.Builder
		sb.WriteString(RenderSeries(ChartOptions{
			Title: title + " (*=stress o=intensity +=throttled)",
			YMin:  0, YMax: 1.05,
		}, stress, intens, throttle))
		// Key shape checks: Twitter runs during low intensity, throttles
		// under high intensity stress.
		lowIntensityRun := MeanWhile(res.Records, invert(throttle), func(r TickRecord) bool {
			return intensity(r.Tick) < 0.35 && r.Tick > 10
		})
		highIntensityRun := MeanWhile(res.Records, invert(throttle), func(r TickRecord) bool {
			return intensity(r.Tick) > 0.8 && r.Tick > 10
		})
		vs := Violations(res.Records)
		fmt.Fprintf(&sb, "batch running fraction: low-intensity %.2f vs high-intensity %.2f; violations %d\n",
			lowIntensityRun, highIntensityRun, vs.Violations)
		return sb.String(), map[string]float64{
			"low_intensity_run":  lowIntensityRun,
			"high_intensity_run": highIntensityRun,
			"violations":         float64(vs.Violations),
		}, nil
	}

	// 13a: CPU-intensive with valleys at ticks 20–40 and 80–100.
	intensityA := apps.StepIntensity(
		[]float64{0.9, 0.2, 0.95, 0.25, 0.9},
		[]int{20, 40, 80, 100})
	textA, sumA, err := sub("fig13a", apps.CPUIntensive, intensityA,
		"Fig 13a — Webservice (CPU) + Twitter, varying workload")
	if err != nil {
		return nil, err
	}
	// 13b: mixed workload with a phase change (low period) at ticks 60–72,
	// mirroring the paper's timestamps 30–36.
	intensityB := apps.StepIntensity(
		[]float64{0.9, 0.15, 0.9},
		[]int{60, 72})
	textB, sumB, err := sub("fig13b", apps.Mixed, intensityB,
		"Fig 13b — Webservice (mix) + Twitter, phase change at 60–72")
	if err != nil {
		return nil, err
	}

	summary := map[string]float64{}
	for k, v := range sumA {
		summary["a_"+k] = v
	}
	for k, v := range sumB {
		summary["b_"+k] = v
	}
	return &Figure{
		ID:      "fig13",
		Title:   "Execution timeline: Webservice + Twitter-Analysis",
		Text:    textA + "\n" + textB,
		Summary: summary,
	}, nil
}

// webQoSFigure regenerates Figs 14–16: the Webservice's QoS for one
// workload kind when co-located (with Stay-Away) with each batch
// application.
func webQoSFigure(id string, kind apps.WorkloadKind, seed int64) (*Figure, error) {
	const ticks = 300
	intensity, err := DiurnalIntensity(seed, ticks)
	if err != nil {
		return nil, err
	}
	threshold := 1.0
	var b strings.Builder
	summary := map[string]float64{}
	fmt.Fprintf(&b, "%s — Webservice (%s) QoS with Stay-Away, per batch application\n\n", strings.ToUpper(id[:1])+id[1:], kind)
	for _, combo := range batchCombos() {
		res, err := Run(Scenario{
			Name:        fmt.Sprintf("%s-%s", id, combo.name),
			SensitiveID: "web",
			Sensitive:   webserviceApp(kind, intensity),
			Batch:       combo.placements,
			Ticks:       ticks,
			Seed:        seed,
			StayAway:    true,
		})
		if err != nil {
			return nil, err
		}
		vs := Violations(res.Records)
		b.WriteString(RenderSeries(ChartOptions{
			Title: fmt.Sprintf("vs %s (violations %d/%d = %.1f%%)", combo.name, vs.Violations, vs.Ticks, 100*vs.Rate),
			HLine: &threshold, YMin: 0, YMax: 1.3, Height: 8,
		}, QoSSeries(res.Records)))
		summary["viol_"+combo.name] = vs.Rate
	}
	return &Figure{
		ID:      id,
		Title:   fmt.Sprintf("Webservice (%s) QoS per batch application", kind),
		Text:    b.String(),
		Summary: summary,
	}, nil
}

// Fig14 regenerates Figure 14: Webservice with the mixed workload.
func Fig14(seed int64) (*Figure, error) {
	return webQoSFigure("fig14", apps.Mixed, seed)
}

// Fig15 regenerates Figure 15: Webservice with the CPU-intensive workload.
func Fig15(seed int64) (*Figure, error) {
	return webQoSFigure("fig15", apps.CPUIntensive, seed)
}

// Fig16 regenerates Figure 16: Webservice with the memory-intensive
// workload.
func Fig16(seed int64) (*Figure, error) {
	return webQoSFigure("fig16", apps.MemoryIntensive, seed)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func invert(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 1 - x
	}
	return out
}
