package metrics

import (
	"fmt"
	"math"
)

// Normalization (§4): "the problem is overcome by normalizing all the
// metric values between [0,1]". CPU has a natural fixed range; memory does
// not ("each VM could be assigned different amounts of memory"), so ranges
// are either fixed by configuration or learned adaptively from the maximum
// observed value.

// Range describes how one metric is scaled into [0,1].
type Range struct {
	// Max is the value that maps to 1. For adaptive ranges this grows as
	// larger values are observed.
	Max float64
	// Adaptive indicates the range stretches to cover new maxima instead
	// of clamping.
	Adaptive bool
}

// Normalizer scales raw metric values into [0,1] per metric.
// The zero value is not usable; use NewNormalizer.
type Normalizer struct {
	ranges map[Metric]*Range
}

// NewNormalizer builds a normalizer from per-metric ranges. Every metric
// must have Max > 0 (adaptive ranges use Max as the initial guess).
func NewNormalizer(ranges map[Metric]Range) (*Normalizer, error) {
	if len(ranges) == 0 {
		return nil, fmt.Errorf("metrics: normalizer needs at least one range")
	}
	n := &Normalizer{ranges: make(map[Metric]*Range, len(ranges))}
	for m, r := range ranges {
		if r.Max <= 0 || math.IsNaN(r.Max) || math.IsInf(r.Max, 0) {
			return nil, fmt.Errorf("metrics: metric %q has invalid max %v", m, r.Max)
		}
		rc := r
		n.ranges[m] = &rc
	}
	return n, nil
}

// DefaultRanges returns sensible ranges for the default metric set on a
// host with the given core count, memory, disk and network capacity.
// CPU is a fixed 0..100·cores range; the others adapt from the host
// capacity.
func DefaultRanges(cores int, memoryMB, diskMBps, netMbps float64) map[Metric]Range {
	return map[Metric]Range{
		MetricCPU:     {Max: 100 * float64(cores)},
		MetricMemory:  {Max: memoryMB, Adaptive: true},
		MetricIO:      {Max: diskMBps, Adaptive: true},
		MetricNetwork: {Max: netMbps, Adaptive: true},
	}
}

// Observe updates adaptive ranges with a raw sample. Call once per period
// before Normalize so that all samples from the same period share ranges.
func (n *Normalizer) Observe(s Sample) {
	for m, v := range s.Values {
		if r, ok := n.ranges[m]; ok {
			r.observe(v)
		}
	}
}

// observeSum observes, per metric, the sum of the values of the samples
// whose VM is in batch — the logical VM Aggregate would build, without
// building it. A metric no such sample carries sums to 0, which no range
// absorbs (Max > 0), exactly as Observe skips a metric the aggregate
// lacks.
func (n *Normalizer) observeSum(samples []Sample, batch map[string]bool) {
	for m, r := range n.ranges {
		var sum float64
		for _, s := range samples {
			if batch[s.VM] {
				sum += s.Values[m]
			}
		}
		r.observe(sum)
	}
}

// observe stretches an adaptive range to cover v.
func (r *Range) observe(v float64) {
	if r.Adaptive && v > r.Max && !math.IsInf(v, 0) && !math.IsNaN(v) {
		r.Max = v
	}
}

// Normalize returns a copy of s with every known metric scaled into [0,1].
// Values above a fixed range clamp to 1; negative or NaN values clamp to 0.
// Metrics without a configured range pass through unchanged (the caller
// opted them out of normalization).
func (n *Normalizer) Normalize(s Sample) Sample {
	out := Sample{VM: s.VM, Values: make(map[Metric]float64, len(s.Values))}
	for m, v := range s.Values {
		out.Values[m] = n.scale(m, v)
	}
	return out
}

// scale normalizes one raw value of metric m.
func (n *Normalizer) scale(m Metric, v float64) float64 {
	r, ok := n.ranges[m]
	if !ok {
		return v
	}
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	nv := v / r.Max
	if nv > 1 {
		nv = 1
	}
	return nv
}

// NormalizeAll observes and then normalizes a batch of samples from one
// monitoring period.
func (n *Normalizer) NormalizeAll(samples []Sample) []Sample {
	for _, s := range samples {
		n.Observe(s)
	}
	out := make([]Sample, len(samples))
	for i, s := range samples {
		out[i] = n.Normalize(s)
	}
	return out
}

// RangeFor reports the current range for a metric.
func (n *Normalizer) RangeFor(m Metric) (Range, bool) {
	r, ok := n.ranges[m]
	if !ok {
		return Range{}, false
	}
	return *r, true
}

// Snapshot returns a copy of all current ranges, for template export: a
// reused map is only valid when the new run normalizes with the same
// ranges.
func (n *Normalizer) Snapshot() map[Metric]Range {
	out := make(map[Metric]Range, len(n.ranges))
	for m, r := range n.ranges {
		out[m] = *r
	}
	return out
}

// Restore overwrites the normalizer's ranges with a previously captured
// snapshot.
func (n *Normalizer) Restore(ranges map[Metric]Range) error {
	nn, err := NewNormalizer(ranges)
	if err != nil {
		return err
	}
	n.ranges = nn.ranges
	return nil
}
