package experiments

// Prediction lead time: how many periods in advance the predictor warned
// before each violation. Gradual transitions (§3.2.3) should be flagged
// periods ahead; instantaneous CPU jumps are inherently unforeseeable
// (lead 0), which the paper concedes. Lead-time analysis only makes sense
// on observe-only runs (actions would prevent the violations being
// measured).

// LeadTimeStats summarizes prediction lead over one run.
type LeadTimeStats struct {
	// Violations is the number of violation ticks analysed.
	Violations int
	// Foreseen counts violations preceded by at least one predicted tick.
	Foreseen int
	// MeanLead is the average number of consecutive predicted ticks
	// immediately preceding each violation (0 for unforeseen ones).
	MeanLead float64
	// MaxLead is the longest warning streak observed.
	MaxLead int
}

// LeadTimes computes, for every violation tick, the length of the
// consecutive run of predicted ticks immediately before it. The tick of
// the violation itself does not count toward its lead.
//
//lint:stayaway-ignore deadcode its caller is the bench harness, a separate module that ./... does not load
func LeadTimes(records []TickRecord) LeadTimeStats {
	var st LeadTimeStats
	var total int
	for i, r := range records {
		if !r.Violation || !r.SensitiveRunning {
			continue
		}
		st.Violations++
		lead := 0
		for j := i - 1; j >= 0 && records[j].Predicted && !records[j].Violation; j-- {
			lead++
		}
		if lead > 0 {
			st.Foreseen++
		}
		if lead > st.MaxLead {
			st.MaxLead = lead
		}
		total += lead
	}
	if st.Violations > 0 {
		st.MeanLead = float64(total) / float64(st.Violations)
	}
	return st
}
