package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to be worth reporting.
const tailSamples = 10

// tailPercentile picks the percentile period_ms_p95 reports: the 95th,
// or on a series too short for that the highest whole percentile that
// still has at least tailSamples samples beyond it among n; below the
// median there is no tail to speak of and it returns 50.
func tailPercentile(n int) int {
	for p := 95; p > 50; p-- {
		if samplesBeyond(n, p) >= tailSamples {
			return p
		}
	}
	return 50
}

// samplesBeyond is how many of n samples rank above the p-th percentile.
func samplesBeyond(n, p int) int {
	return n - int(math.Ceil(float64(n)*float64(p)/100))
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * float64(p) / 100))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

func median(x []float64) float64 {
	s := sortedCopy(x)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minPerIndex folds same-seed repetitions into one series: element i is
// the smallest cost any repetition measured for period i. Legal only
// because the repetitions did identical work (the event hash proves it),
// so the differences between them are machine noise, which only adds.
func minPerIndex(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := append([]float64(nil), reps[0]...)
	for _, r := range reps[1:] {
		for i := range out {
			if i < len(r) && r[i] < out[i] {
				out[i] = r[i]
			}
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// the spreads printed here are the ones the acceptance check computes.
func quartiles(x []float64) (q1, q2, q3 float64) {
	s := sortedCopy(x)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(x []float64) float64 {
	q1, q2, q3 := quartiles(x)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
