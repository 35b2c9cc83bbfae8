package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// reactive switches §3.2's forecast off and leaves a plain reactive
// controller: a negative violation-range radius puts no candidate in
// range, so no forecast fires, while the controller still throttles on
// every reported violation. What Stay-Away does better than this arm is
// what the forecast buys.
func reactive(c *core.Config) {
	c.RangePolicy = func(_, _ float64) float64 { return -1 }
}

// ReactiveReference compares Stay-Away with its reactive arm on every
// headline-summary cell (gained utilization and violation rate) and on
// every class of the scenario zoo, whose report already holds both arms
// (batch work and violation rate).
func ReactiveReference(seed int64, zoo *ZooReport) (*Figure, error) {
	on, err := summaryCells(seed, nil)
	if err != nil {
		return nil, err
	}
	off, err := summaryCells(seed, reactive)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("What the forecast buys — Stay-Away with the forecast on, and off (reactive)\n\n")
	fmt.Fprintf(&b, "  %-41s %7s %7s %7s   %7s %7s %7s\n", "headline cell", "gain", "off", "Δ", "viol", "off", "Δ")
	for i, c := range on {
		r := off[i]
		fmt.Fprintf(&b, "  %-41s %6.1f%% %6.1f%% %+6.1f   %6.1f%% %6.1f%% %+6.1f\n",
			c.name, 100*c.gain, 100*r.gain, 100*(c.gain-r.gain), 100*c.viol, 100*r.viol, 100*(c.viol-r.viol))
	}
	fmt.Fprintf(&b, "\n  %-41s %7s %7s %7s   %7s %7s %7s\n", "zoo class", "work", "off", "Δ", "viol", "off", "Δ")
	for _, r := range zoo.Rows {
		fmt.Fprintf(&b, "  %-41s %7.0f %7.0f %+7.0f   %7.3f %7.3f %+7.3f\n", r.Class,
			r.BatchWork, r.ReactiveWork, r.BatchWork-r.ReactiveWork,
			r.ProtectedRate, r.ReactiveRate, r.ProtectedRate-r.ReactiveRate)
	}
	b.WriteString("\n(Δ = on − off: gain and viol in percentage points, work in cpu·ticks)\n")
	return &Figure{ID: "reactive", Title: "What the forecast buys", Text: b.String()}, nil
}
