package main

// layerStats collects the traced pass's per-layer observations: timings
// are averaged over their samples, counts and gauges are set once.
type layerStats struct {
	sum   map[string]float64
	n     map[string]int
	fixed map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{sum: map[string]float64{}, n: map[string]int{}, fixed: map[string]float64{}}
}

// add records one timing sample for name.
func (l *layerStats) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

// set records a count, gauge or ratio.
func (l *layerStats) set(name string, v float64) { l.fixed[name] = v }

// value returns the metric: the fixed value, else the mean of the
// samples, else 0 for a layer this workload never entered.
func (l *layerStats) value(name string) float64 {
	if v, ok := l.fixed[name]; ok {
		return v
	}
	if n := l.n[name]; n > 0 {
		return l.sum[name] / float64(n)
	}
	return 0
}
