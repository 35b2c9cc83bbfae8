package main

import (
	"math"
	"time"
)

// The reference kernel is the machine-speed probe every timing in this
// benchmark is divided by. It must never change after the PR that adds
// it: a different loop body would silently rescale every committed
// baseline.

const (
	refDim  = 8
	refVecs = 2000
	// refNominalUS is the kernel's fast-mode minimum on the builder's box
	// (2 vCPU, go1.24): timings read "at nominal speed" mean "as if the
	// kernel took this long".
	refNominalUS = 9.3
	// refWindow is how far either side of a timed interval reference
	// samples still describe the machine speed during it.
	refWindow = 50 * time.Millisecond
)

var (
	refData = func() []float64 {
		v := make([]float64, (refVecs+1)*refDim)
		x := uint64(0x9E3779B97F4A7C15)
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = float64(x>>11) / (1 << 53)
		}
		return v
	}()
	refSink float64
)

// refKernel is 2000 squared distances between 8-D vectors: allocation
// free, cache resident, the same arithmetic mix as the map layers.
func refKernel() {
	q := refData[refVecs*refDim:]
	var acc float64
	for i := 0; i < refVecs; i++ {
		v := refData[i*refDim : i*refDim+refDim]
		var s float64
		for d := 0; d < refDim; d++ {
			diff := v[d] - q[d]
			s += diff * diff
		}
		acc += s
	}
	refSink = acc
}

// refSample is one timed run of the reference kernel.
type refSample struct {
	at time.Duration // start, since the clock's origin
	us float64
}

// clock timestamps everything in one repetition against one origin so
// reference samples and timed intervals are comparable.
type clock struct{ origin time.Time }

func newClock() *clock { return &clock{origin: time.Now()} }

func (c *clock) now() time.Duration { return time.Since(c.origin) }

// ref runs the kernel n times and appends the samples.
func (c *clock) ref(samples []refSample, n int) []refSample {
	for i := 0; i < n; i++ {
		t0 := c.now()
		refKernel()
		t1 := c.now()
		samples = append(samples, refSample{at: t0, us: float64(t1-t0) / float64(time.Microsecond)})
	}
	return samples
}

// speedAt estimates the machine speed over the interval [start, end]:
// the minimum reference time among samples within refWindow of either
// edge — and always the adjacent samples lo..hi, the ones taken right
// before and right after — over the nominal time. samples are ordered
// by time; lo and hi bound the adjacent ones (inclusive indices).
func speedAt(samples []refSample, lo, hi int, start, end time.Duration) float64 {
	best := math.Inf(1)
	for i := lo; i <= hi && i < len(samples); i++ {
		if i >= 0 && samples[i].us < best {
			best = samples[i].us
		}
	}
	for i := lo - 1; i >= 0 && samples[i].at >= start-refWindow; i-- {
		if samples[i].us < best {
			best = samples[i].us
		}
	}
	for i := hi + 1; i < len(samples) && samples[i].at <= end+refWindow; i++ {
		if samples[i].us < best {
			best = samples[i].us
		}
	}
	if math.IsInf(best, 1) {
		return 1
	}
	return best / refNominalUS
}
