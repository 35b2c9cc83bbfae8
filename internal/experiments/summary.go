package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// summaryCell is one headline co-location's outcome under Stay-Away.
type summaryCell struct {
	name       string
	gain, viol float64
}

// summaryCells runs the headline summary's co-locations — the VLC runs of
// Figs 10–11 and the Webservice sweep of Fig 12 — with tune, when
// non-nil, adjusting every Stay-Away runtime.
func summaryCells(seed int64, tune func(*core.Config)) ([]summaryCell, error) {
	var cells []summaryCell
	for _, r := range []struct {
		name string
		fig  func(int64, func(*core.Config)) (*Figure, error)
	}{{"VLC + CPUBomb", fig10}, {"VLC + Twitter-Analysis", fig11}} {
		f, err := r.fig(seed, tune)
		if err != nil {
			return nil, err
		}
		cells = append(cells, summaryCell{r.name, f.Summary["gain_stayaway"], f.Summary["violation_rate_stayaway"]})
	}
	f12, err := fig12(seed, tune)
	if err != nil {
		return nil, err
	}
	for _, combo := range batchCombos() {
		for _, kind := range webKinds {
			cells = append(cells, summaryCell{
				fmt.Sprintf("Webservice(%s) + %s", kind, combo.name),
				f12.Summary[fmt.Sprintf("gain_%s_%s", combo.name, kind)],
				f12.Summary[fmt.Sprintf("viol_%s_%s", combo.name, kind)],
			})
		}
	}
	return cells, nil
}

// Summary reproduces the paper's headline claim: "we are able to guarantee
// a high level of QoS, and are able to increase the machine utilization by
// 10%-70%, depending on the type of co-located batch application." It runs
// the VLC co-locations of Figs 10–11 plus a Webservice sweep and reports
// the gained-utilization spread.
func Summary(seed int64) (*Figure, error) {
	cells, err := summaryCells(seed, nil)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Headline summary — gained utilization with Stay-Away (QoS guarded)\n\n")
	summary := map[string]float64{}
	minGain, maxGain := 1.0, 0.0
	for _, c := range cells {
		fmt.Fprintf(&b, "  %-38s gain %5.1f%%  violations %4.1f%%\n", c.name, 100*c.gain, 100*c.viol)
		summary["gain_"+c.name] = c.gain
		minGain, maxGain = min(minGain, c.gain), max(maxGain, c.gain)
	}
	fmt.Fprintf(&b, "\ngained utilization spread: %.0f%% – %.0f%% (paper: 10%%–70%%)\n",
		100*minGain, 100*maxGain)
	summary["min_gain"] = minGain
	summary["max_gain"] = maxGain
	return &Figure{
		ID:      "summary",
		Title:   "Gained utilization across co-locations",
		Text:    b.String(),
		Summary: summary,
	}, nil
}
