package experiments

// Series extraction and summary statistics over run records.

// QoSSeries returns the sensitive application's normalized QoS per tick
// (QoS divided by its threshold, so 1.0 is the violation boundary), with 0
// for ticks where the app was not running. Normalizing by the threshold
// matches the paper's "normalised QoS" axes with the threshold drawn as a
// horizontal line.
func QoSSeries(records []TickRecord) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		if r.SensitiveRunning && r.Threshold > 0 {
			out[i] = r.QoS / r.Threshold
		}
	}
	return out
}

// GainSeries returns the per-tick gained utilization: the batch
// containers' CPU share of the machine. §7.2 defines gained utilization
// as "the gain in utilisation in comparison to executing [the sensitive
// service] without any co-location" — exactly the CPU the batch containers
// consume.
func GainSeries(records []TickRecord) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.BatchCPUShare
	}
	return out
}

// ThrottleSeries returns 1 for throttled ticks, 0 otherwise.
func ThrottleSeries(records []TickRecord) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		if r.Throttled {
			out[i] = 1
		}
	}
	return out
}

// ViolationStats summarizes QoS violations over a run.
type ViolationStats struct {
	// Ticks is how many ticks the sensitive application was running.
	Ticks int
	// Violations is how many of those violated QoS.
	Violations int
	// Rate is Violations/Ticks.
	Rate float64
	// FirstHalf and SecondHalf split the violations by run half; with
	// Stay-Away most violations should fall in the early learning phase
	// (§7.2).
	FirstHalf, SecondHalf int
}

// Violations computes violation statistics over the ticks where the
// sensitive application ran.
func Violations(records []TickRecord) ViolationStats {
	var st ViolationStats
	var runningSeen []int // indices of running ticks
	for i, r := range records {
		if !r.SensitiveRunning {
			continue
		}
		runningSeen = append(runningSeen, i)
		st.Ticks++
		if r.Violation {
			st.Violations++
		}
	}
	if st.Ticks > 0 {
		st.Rate = float64(st.Violations) / float64(st.Ticks)
		mid := runningSeen[len(runningSeen)/2]
		for _, i := range runningSeen {
			if records[i].Violation {
				if i < mid {
					st.FirstHalf++
				} else {
					st.SecondHalf++
				}
			}
		}
	}
	return st
}

// Mean returns the arithmetic mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanWhile averages xs over the ticks where pred holds.
func MeanWhile(records []TickRecord, xs []float64, pred func(TickRecord) bool) float64 {
	var s float64
	var n int
	for i, r := range records {
		if pred(r) {
			s += xs[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
