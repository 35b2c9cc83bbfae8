package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/statespace"
	"repro/internal/trajectory"
)

// Fig05 regenerates Figure 5: the full execution lifecycle of VLC
// streaming co-located with Soplex, stepping through all four execution
// modes (idle → sensitive-only → co-located → batch-only), with the
// per-mode trajectory pdfs. Actions are disabled: the figure illustrates
// unmitigated behaviour.
func Fig05(seed int64) (*Figure, error) {
	res, err := Run(Scenario{
		Name:           "fig05-vlc-soplex-lifecycle",
		SensitiveID:    "vlc",
		Sensitive:      vlcStreamAppWithDuration(110),
		SensitiveStart: 10,
		Batch:          []Placement{{ID: "soplex", StartTick: 40, App: soplexApp}},
		Ticks:          200,
		Seed:           seed,
		StayAway:       true,
		DisableActions: true,
	})
	if err != nil {
		return nil, err
	}

	modesSeen := map[trajectory.Mode]int{}
	for _, r := range res.Records {
		modesSeen[r.Mode]++
	}
	var b strings.Builder
	b.WriteString(RenderScatter(
		"Fig 5 — state space over the lifecycle (.=idle s=sensitive b=batch c=co-located V=violation)",
		64, 20, statePoints(res.Records)))
	b.WriteString("\nper-mode trajectory bias (distance skew, angle skew):\n")
	summary := map[string]float64{}
	for m := trajectory.ModeIdle; m < trajectory.NumModes; m++ {
		model, err := res.Runtime.Models().ModelFor(m)
		if err != nil {
			return nil, err
		}
		dSkew, aSkew := model.Bias()
		cls := trajectory.Classify(model.Recent())
		fmt.Fprintf(&b, "  %-15s steps=%-4d dSkew=%+.2f aSkew=%+.2f walk=%s\n",
			m, model.Count(), dSkew, aSkew, cls.Kind)
		summary["steps_"+m.String()] = float64(model.Count())
	}
	// The smoothed per-mode pdfs (the KDE curves of the paper's Fig 5),
	// for the modes with enough steps to be meaningful.
	for _, m := range []trajectory.Mode{trajectory.ModeSensitiveOnly, trajectory.ModeColocated, trajectory.ModeBatchOnly} {
		model, err := res.Runtime.Models().ModelFor(m)
		if err != nil {
			return nil, err
		}
		if model.Count() < 10 {
			continue
		}
		_, dPDF := model.DistancePDF(64)
		b.WriteString("\n" + RenderSeries(ChartOptions{
			Title:  fmt.Sprintf("step-length pdf, %s mode", m),
			Height: 6, Width: 64,
		}, dPDF))
	}
	for m, n := range modesSeen {
		summary["ticks_"+m.String()] = float64(n)
	}
	summary["modes_seen"] = float64(len(modesSeen))
	summary["states"] = float64(res.Report.States)
	return &Figure{
		ID:      "fig05",
		Title:   "All 4 execution modes: VLC streaming + Soplex",
		Text:    b.String(),
		Summary: summary,
	}, nil
}

// Fig06 regenerates Figure 6: instantaneous state transitions when VLC
// transcoding (QoS-sensitive here) is co-located with CPUBomb, with
// Stay-Away observing but not acting ("Action status: False").
func Fig06(seed int64) (*Figure, error) {
	res, err := Run(Scenario{
		Name:           "fig06-transcode-cpubomb",
		SensitiveID:    "vlc-transcode",
		Sensitive:      vlcTranscodeQoSApp,
		SensitiveStart: 30, // CPUBomb runs alone first (cluster A)
		Batch:          []Placement{{ID: "cpubomb", StartTick: 0, App: cpuBombApp}},
		Ticks:          120,
		Seed:           seed,
		StayAway:       true,
		DisableActions: true,
	})
	if err != nil {
		return nil, err
	}
	// Instantaneous transition: the jump between the batch-only cluster
	// and the co-located/violation cluster happens within one period.
	var maxJump float64
	for i := 1; i < len(res.Records); i++ {
		d := res.Records[i-1].Coord.Dist(res.Records[i].Coord)
		if d > maxJump {
			maxJump = d
		}
	}
	vs := Violations(res.Records)
	var b strings.Builder
	b.WriteString(RenderScatter(
		"Fig 6 — instantaneous transitions, VLC transcoding + CPUBomb (action status: false)",
		64, 20, statePoints(res.Records)))
	fmt.Fprintf(&b, "violations=%d/%d ticks, max one-period jump=%.3f, violation states=%d\n",
		vs.Violations, vs.Ticks, maxJump, res.Report.ViolationStates)
	return &Figure{
		ID:    "fig06",
		Title: "Instantaneous transitions: VLC transcoding + CPUBomb",
		Text:  b.String(),
		Summary: map[string]float64{
			"violations":       float64(vs.Violations),
			"violation_states": float64(res.Report.ViolationStates),
			"max_jump":         maxJump,
		},
	}, nil
}

// Fig07 regenerates Figure 7: gradual transitions when VLC streaming is
// co-located with Twitter-Analysis, with Stay-Away acting ("Action
// status: True").
func Fig07(seed int64) (*Figure, error) {
	res, err := Run(Scenario{
		Name:        "fig07-vlc-twitter",
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{{ID: "twitter", StartTick: 20, App: twitterApp}},
		Ticks:       250,
		Seed:        seed,
		StayAway:    true,
	})
	if err != nil {
		return nil, err
	}
	throttledTicks := 0
	for _, r := range res.Records {
		if r.Throttled {
			throttledTicks++
		}
	}
	var b strings.Builder
	b.WriteString(RenderScatter(
		"Fig 7 — gradual transitions, VLC streaming + Twitter-Analysis (action status: true)",
		64, 20, statePoints(res.Records)))
	fmt.Fprintf(&b, "throttled %d/%d ticks, pauses=%d resumes=%d\n",
		throttledTicks, len(res.Records), res.Report.Pauses, res.Report.Resumes)
	return &Figure{
		ID:    "fig07",
		Title: "Gradual transitions: VLC streaming + Twitter-Analysis",
		Text:  b.String(),
		Summary: map[string]float64{
			"throttled_ticks": float64(throttledTicks),
			"pauses":          float64(res.Report.Pauses),
		},
	}, nil
}

// qosComparisonFigure runs a co-location twice — unprotected and with
// Stay-Away — and renders both QoS series (Figs 8, 9).
func qosComparisonFigure(id, title, batchID string, batch func(p Placement) Placement, seed int64, ticks int) (*Figure, error) {
	base := Placement{ID: batchID, StartTick: 20}
	placement := batch(base)

	noPrev, err := Run(Scenario{
		Name:        id + "-noprevention",
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{placement},
		Ticks:       ticks,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	withSA, err := Run(Scenario{
		Name:        id + "-stayaway",
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{placement},
		Ticks:       ticks,
		Seed:        seed,
		StayAway:    true,
	})
	if err != nil {
		return nil, err
	}

	vsNo := Violations(noPrev.Records)
	vsSA := Violations(withSA.Records)
	threshold := 1.0
	var b strings.Builder
	b.WriteString(RenderSeries(ChartOptions{
		Title: title + " — without prevention (normalized QoS, threshold line at 1.0)",
		HLine: &threshold, YMin: 0, YMax: 1.3,
	}, QoSSeries(noPrev.Records)))
	b.WriteString(RenderSeries(ChartOptions{
		Title: title + " — with Stay-Away",
		HLine: &threshold, YMin: 0, YMax: 1.3,
	}, QoSSeries(withSA.Records)))
	fmt.Fprintf(&b, "violations without prevention: %d/%d (%.1f%%)\n",
		vsNo.Violations, vsNo.Ticks, 100*vsNo.Rate)
	fmt.Fprintf(&b, "violations with Stay-Away:     %d/%d (%.1f%%), early/late = %d/%d\n",
		vsSA.Violations, vsSA.Ticks, 100*vsSA.Rate, vsSA.FirstHalf, vsSA.SecondHalf)
	return &Figure{
		ID:    id,
		Title: title,
		Text:  b.String(),
		Summary: map[string]float64{
			"violation_rate_noprev":   vsNo.Rate,
			"violation_rate_stayaway": vsSA.Rate,
			"early_violations":        float64(vsSA.FirstHalf),
			"late_violations":         float64(vsSA.SecondHalf),
		},
	}, nil
}

// Fig08 regenerates Figure 8: VLC QoS with CPUBomb, with and without
// Stay-Away.
func Fig08(seed int64) (*Figure, error) {
	return qosComparisonFigure("fig08", "Fig 8 — VLC with CPUBomb", "cpubomb",
		func(p Placement) Placement { p.App = cpuBombApp; return p }, seed, 300)
}

// Fig09 regenerates Figure 9: VLC QoS with Twitter-Analysis.
func Fig09(seed int64) (*Figure, error) {
	return qosComparisonFigure("fig09", "Fig 9 — VLC with Twitter-Analysis", "twitter",
		func(p Placement) Placement { p.App = twitterApp; return p }, seed, 300)
}

// gainFigure runs a co-location unprotected (upper band: maximal gain,
// QoS sacrificed) and with Stay-Away (lower band), rendering gained
// utilization (Figs 10, 11). tune, when non-nil, adjusts the runtime.
func gainFigure(id, title, batchID string, app Placement, seed int64, ticks int, tune func(*core.Config)) (*Figure, error) {
	app.ID = batchID
	noPrev, err := Run(Scenario{
		Name:        id + "-upperband",
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{app},
		Ticks:       ticks,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	withSA, err := Run(Scenario{
		Name:        id + "-stayaway",
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{app},
		Ticks:       ticks,
		Seed:        seed,
		StayAway:    true,
		Tune:        tune,
	})
	if err != nil {
		return nil, err
	}
	upper := GainSeries(noPrev.Records)
	lower := GainSeries(withSA.Records)
	meanUpper := Mean(upper)
	meanLower := Mean(lower)
	vsSA := Violations(withSA.Records)
	var b strings.Builder
	b.WriteString(RenderSeries(ChartOptions{
		Title: title + " (*=no prevention upper band, o=Stay-Away lower band)",
		YMin:  0, YMax: 1.05,
	}, upper, lower))
	fmt.Fprintf(&b, "mean gained utilization: no prevention %.1f%%, Stay-Away %.1f%% (QoS violation rate with Stay-Away: %.1f%%)\n",
		100*meanUpper, 100*meanLower, 100*vsSA.Rate)
	return &Figure{
		ID:    id,
		Title: title,
		Text:  b.String(),
		Summary: map[string]float64{
			"gain_noprev":             meanUpper,
			"gain_stayaway":           meanLower,
			"violation_rate_stayaway": vsSA.Rate,
		},
	}, nil
}

// Fig10 regenerates Figure 10: gained utilization with CPUBomb — the worst
// case, spiky and small (paper: ≈5%).
func Fig10(seed int64) (*Figure, error) { return fig10(seed, nil) }

func fig10(seed int64, tune func(*core.Config)) (*Figure, error) {
	return gainFigure("fig10", "Fig 10 — gained utilization, VLC + CPUBomb",
		"cpubomb", Placement{StartTick: 20, App: cpuBombApp}, seed, 300, tune)
}

// Fig11 regenerates Figure 11: gained utilization with Twitter-Analysis
// (paper: ≈50% average).
func Fig11(seed int64) (*Figure, error) { return fig11(seed, nil) }

func fig11(seed int64, tune func(*core.Config)) (*Figure, error) {
	return gainFigure("fig11", "Fig 11 — gained utilization, VLC + Twitter-Analysis",
		"twitter", Placement{StartTick: 20, App: twitterApp}, seed, 300, tune)
}

// Fig17 regenerates Figure 17: the template captured while VLC streams
// alongside CPUBomb with Stay-Away active.
func Fig17(seed int64) (*Figure, *statespace.Template, error) {
	res, err := Run(Scenario{
		Name:        "fig17-template-cpubomb",
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{{ID: "batch", StartTick: 20, App: cpuBombApp}},
		Ticks:       250,
		Seed:        seed,
		StayAway:    true,
	})
	if err != nil {
		return nil, nil, err
	}
	tpl := res.Runtime.ExportTemplate("vlc-stream")
	var b strings.Builder
	b.WriteString(RenderScatter(
		"Fig 17 — template learned with CPUBomb (V = violation states)",
		64, 20, statePoints(res.Records)))
	fmt.Fprintf(&b, "template: %d states, %d violation states\n",
		len(tpl.States), res.Report.ViolationStates)
	return &Figure{
		ID:    "fig17",
		Title: "Template with CPUBomb",
		Text:  b.String(),
		Summary: map[string]float64{
			"states":           float64(len(tpl.States)),
			"violation_states": float64(res.Report.ViolationStates),
		},
	}, tpl, nil
}

// Fig18 regenerates Figure 18: the template from Fig 17 is loaded for a
// run of the same VLC stream alongside Soplex, with actions disabled; the
// violations observed with Soplex must fall inside (or at the edge of) the
// violation region learned with CPUBomb.
func Fig18(seed int64) (*Figure, error) {
	_, tpl, err := Fig17(seed)
	if err != nil {
		return nil, err
	}
	res, err := Run(Scenario{
		Name:           "fig18-template-soplex",
		SensitiveID:    "vlc",
		Sensitive:      vlcStreamApp,
		Batch:          []Placement{{ID: "batch", StartTick: 20, App: soplexApp}},
		Ticks:          250,
		Seed:           seed + 1,
		StayAway:       true,
		DisableActions: true,
		Template:       tpl,
	})
	if err != nil {
		return nil, err
	}

	// Validate the §6 claim ("they correspond to the area characterised by
	// violations") two ways: the strict test — the new violation maps
	// inside some template violation-range — and the qualitative test —
	// the new violation lies closer to the template's violation states
	// than to its safe states.
	tplSpace, err := statespace.Import(tpl)
	if err != nil {
		return nil, err
	}
	var total, inRegion, nearer int
	for _, r := range res.Records {
		if !r.Violation {
			continue
		}
		total++
		if _, in := tplSpace.InViolationRange(r.Coord); in {
			inRegion++
		}
		dSafe, _, okSafe := tplSpace.NearestSafe(r.Coord)
		dViol := nearestViolationDist(tplSpace, r.Coord)
		if okSafe && dViol >= 0 && dViol < dSafe {
			nearer++
		}
	}
	inFrac, nearFrac := 0.0, 0.0
	if total > 0 {
		inFrac = float64(inRegion) / float64(total)
		nearFrac = float64(nearer) / float64(total)
	}
	var b strings.Builder
	b.WriteString(RenderScatter(
		"Fig 18 — VLC + Soplex on the CPUBomb-learned template (actions disabled)",
		64, 20, statePoints(res.Records)))
	fmt.Fprintf(&b, "violations with Soplex: %d; inside template violation-ranges: %d (%.0f%%); "+
		"closer to template violation states than safe states: %d (%.0f%%)\n",
		total, inRegion, 100*inFrac, nearer, 100*nearFrac)
	return &Figure{
		ID:    "fig18",
		Title: "Template validation: VLC with Soplex",
		Text:  b.String(),
		Summary: map[string]float64{
			"violations":         float64(total),
			"in_region":          float64(inRegion),
			"in_region_fraction": inFrac,
			"nearer_fraction":    nearFrac,
		},
	}, nil
}

// nearestViolationDist returns the distance from p to the nearest
// violation state in the space, or −1 when none exists.
func nearestViolationDist(space *statespace.Space, p mds.Coord) float64 {
	best := -1.0
	for _, id := range space.ViolationIDs() {
		st, err := space.State(id)
		if err != nil {
			continue
		}
		d := st.Coord.Dist(p)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}
