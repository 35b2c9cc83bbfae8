package experiments

import (
	"fmt"
	"strings"
)

// Summary reproduces the paper's headline claim: "we are able to guarantee
// a high level of QoS, and are able to increase the machine utilization by
// 10%-70%, depending on the type of co-located batch application." It runs
// the VLC co-locations of Figs 10–11 plus a Webservice sweep and reports
// the gained-utilization spread.
func Summary(seed int64) (*Figure, error) {
	type row struct {
		name string
		fig  func(int64) (*Figure, error)
		key  string
	}
	rows := []row{
		{"VLC + CPUBomb", Fig10, "gain_stayaway"},
		{"VLC + Twitter-Analysis", Fig11, "gain_stayaway"},
	}
	var b strings.Builder
	b.WriteString("Headline summary — gained utilization with Stay-Away (QoS guarded)\n\n")
	summary := map[string]float64{}
	minGain, maxGain := 1.0, 0.0
	record := func(name string, gain, viol float64) {
		fmt.Fprintf(&b, "  %-38s gain %5.1f%%  violations %4.1f%%\n", name, 100*gain, 100*viol)
		summary["gain_"+name] = gain
		if gain < minGain {
			minGain = gain
		}
		if gain > maxGain {
			maxGain = gain
		}
	}
	for _, r := range rows {
		f, err := r.fig(seed)
		if err != nil {
			return nil, err
		}
		record(r.name, f.Summary[r.key], f.Summary["violation_rate_stayaway"])
	}
	// Webservice sweep from Fig 12.
	f12, err := Fig12(seed)
	if err != nil {
		return nil, err
	}
	for _, combo := range batchCombos() {
		for _, kind := range webKinds {
			key := fmt.Sprintf("gain_%s_%s", combo.name, kind)
			vkey := fmt.Sprintf("viol_%s_%s", combo.name, kind)
			record(fmt.Sprintf("Webservice(%s) + %s", kind, combo.name),
				f12.Summary[key], f12.Summary[vkey])
		}
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
