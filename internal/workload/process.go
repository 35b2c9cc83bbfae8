// Package workload models open-loop load: requests arrive according to an
// arrival process whether or not the service can absorb them, queue in a
// bounded buffer, and experience queueing delay that — not the momentary
// service rate — is what a latency SLO is about.
//
// The paper's evaluation drives closed-loop workloads whose QoS is the
// instantaneous grant/demand ratio; at scale the load is open-loop, so a
// freeze that looks cheap instantaneously can blow a latency SLO minutes
// later while the backlog drains. This package provides the pieces the
// apps and experiments layers compose:
//
//   - arrival processes (constant, replayed series/trace, Poisson,
//     diurnal, flash-crowd);
//   - a bounded FIFO Queue of request cohorts with per-tick latency
//     accounting;
//   - a sliding latency Window with weighted percentiles, right-censored
//     by the waiting backlog so starvation degrades the percentile even
//     before any starved request completes;
//   - an open-loop Engine translating granted service into completions and
//     a percentile-latency QoS (p95/p99 vs a target);
//   - a Chain of dependent stages whose QoS is the end-to-end latency
//     across every stage's queue (the microservice framing).
//
// Everything is deterministic under a caller-provided *rand.Rand: the
// package is covered by the repo's determinism analyzer (no wall clock, no
// global rand, no map-ordered output), which is what lets the scenario zoo
// replay multi-day traces reproducibly in CI.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Process generates request arrivals. Arrivals returns the number of
// requests arriving during the given tick; fractional values are allowed
// (the queue is a fluid approximation). Implementations must be
// deterministic for a fixed construction (same seed ⇒ same series) but may
// assume ticks are visited in nondecreasing order.
type Process interface {
	Arrivals(tick int) float64
}

// Constant is a fixed-rate arrival process.
type Constant float64

// Arrivals implements Process.
func (c Constant) Arrivals(int) float64 { return math.Max(0, float64(c)) }

// Series replays a per-tick rate series, clamping past the end to the
// final value (matching the closed-loop SeriesIntensity convention). An
// empty series yields 0.
type Series []float64

// NewSeries copies rates into a Series process.
func NewSeries(rates []float64) Series { return append(Series(nil), rates...) }

// Arrivals implements Process.
func (s Series) Arrivals(tick int) float64 {
	if len(s) == 0 {
		return 0
	}
	if tick < 0 {
		tick = 0
	}
	if tick >= len(s) {
		tick = len(s) - 1
	}
	return math.Max(0, s[tick])
}

// Poisson draws the per-tick arrival count from a Poisson distribution
// around a mean-rate process — the memoryless arrival model of open-loop
// load generators. A nil RNG degrades to the fluid mean (deterministic).
type Poisson struct {
	mean Process
	rng  *rand.Rand
}

// NewPoisson wraps a mean-rate process with Poisson sampling.
func NewPoisson(mean Process, rng *rand.Rand) *Poisson {
	return &Poisson{mean: mean, rng: rng}
}

// Arrivals implements Process.
func (p *Poisson) Arrivals(tick int) float64 {
	lambda := p.mean.Arrivals(tick)
	if p.rng == nil || lambda <= 0 {
		return lambda
	}
	// Above a modest rate the normal approximation is indistinguishable at
	// SLO percentiles and avoids O(λ) sampling per tick.
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*p.rng.NormFloat64()
		return math.Max(0, math.Round(v))
	}
	// Knuth's product method.
	limit := math.Exp(-lambda)
	k, prod := 0, 1.0
	for prod > limit {
		k++
		prod *= p.rng.Float64()
	}
	return float64(k - 1)
}

// Diurnal is a sinusoidal day/night arrival-rate cycle.
type Diurnal struct {
	// Base is the mean rate (requests/tick).
	Base float64
	// Amplitude is the swing as a fraction of Base, in [0,1].
	Amplitude float64
	// PeriodTicks is the cycle length ("one day") in ticks.
	PeriodTicks int
	// PeakTick is the tick offset (within the period) of maximal load.
	PeakTick int
}

// Arrivals implements Process.
func (d Diurnal) Arrivals(tick int) float64 {
	if d.PeriodTicks <= 0 || d.Base <= 0 {
		return math.Max(0, d.Base)
	}
	phase := 2 * math.Pi * float64(tick-d.PeakTick) / float64(d.PeriodTicks)
	return math.Max(0, d.Base*(1+d.Amplitude*math.Cos(phase)))
}

// TraceReplay drives arrivals from a request-rate trace (trace.Point
// series, e.g. tracegen output read back through trace.ReadCSV). Each
// trace sample spans TicksPerSample ticks; Scale converts the trace's
// requests/second into requests/tick. Past the final sample the last rate
// holds, so a replayed trace behaves like Series.
type TraceReplay struct {
	rates          []float64
	ticksPerSample int
}

// NewTraceReplay builds a replay process. scale converts a trace sample's
// Rate into requests/tick (e.g. tick length in seconds × a fleet-share
// fraction); ticksPerSample stretches each sample over that many ticks
// (minimum 1). An error is returned for an empty trace or non-positive
// scale, so a truncated CSV fails loudly instead of replaying silence.
func NewTraceReplay(points []trace.Point, scale float64, ticksPerSample int) (*TraceReplay, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: trace scale must be positive, got %v", scale)
	}
	if ticksPerSample < 1 {
		ticksPerSample = 1
	}
	rates := make([]float64, len(points))
	for i, p := range points {
		rates[i] = math.Max(0, p.Rate*scale)
	}
	return &TraceReplay{rates: rates, ticksPerSample: ticksPerSample}, nil
}

// Ticks returns the replay length in ticks (samples × ticks-per-sample).
func (t *TraceReplay) Ticks() int { return len(t.rates) * t.ticksPerSample }

// Arrivals implements Process.
func (t *TraceReplay) Arrivals(tick int) float64 {
	if tick < 0 {
		tick = 0
	}
	i := tick / t.ticksPerSample
	if i >= len(t.rates) {
		i = len(t.rates) - 1
	}
	return t.rates[i]
}
