package chaos

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/procenv"
)

// SamplerConfig tunes an error-injecting usage sampler.
type SamplerConfig struct {
	// DropProb is the fraction of Sample calls that return no samples —
	// a collector that transiently lost its procfs/cgroupfs view.
	DropProb float64
	// Seed drives the probabilistic drops, so chaos runs reproduce.
	Seed int64
	// SampleDelay, when positive, sleeps before every Sample — a slow
	// collector. Sleep overrides the sleeper for tests; nil uses
	// time.Sleep.
	SampleDelay time.Duration
	Sleep       func(time.Duration)
}

// Sampler wraps a procenv.Sampler with fault injection: probabilistic
// dropped samples, scripted delays, and a hang switch that blocks Sample
// until released — the collector-side stall the watchdog must catch.
// Safe for concurrent use.
type Sampler struct {
	inner procenv.Sampler
	cfg   SamplerConfig

	mu      sync.Mutex
	rng     *rand.Rand
	hung    chan struct{}
	samples int
	drops   int
}

var _ procenv.Sampler = (*Sampler)(nil)

// NewSampler wraps inner with fault injection.
//
//lint:stayaway-ignore deadcode a test helper: fault-injecting sampler shared by the tests of several packages
func NewSampler(inner procenv.Sampler, cfg SamplerConfig) *Sampler {
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Sampler{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// HangSamples makes every subsequent Sample block until ReleaseSamples
// is called.
func (s *Sampler) HangSamples() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hung == nil {
		s.hung = make(chan struct{})
	}
}

// ReleaseSamples unblocks all hung and future Sample calls.
func (s *Sampler) ReleaseSamples() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hung != nil {
		close(s.hung)
		s.hung = nil
	}
}

// Stats reports Sample calls attempted and how many were dropped.
func (s *Sampler) Stats() (samples, drops int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples, s.drops
}

// Sample implements procenv.Sampler with injected hangs, delays, and
// dropped readings.
func (s *Sampler) Sample() []metrics.Sample {
	s.mu.Lock()
	s.samples++
	hung := s.hung
	drop := s.cfg.DropProb > 0 && s.rng.Float64() < s.cfg.DropProb
	if drop {
		s.drops++
	}
	s.mu.Unlock()
	if hung != nil {
		<-hung
	}
	if s.cfg.SampleDelay > 0 {
		s.cfg.Sleep(s.cfg.SampleDelay)
	}
	if drop {
		return nil
	}
	return s.inner.Sample()
}

// GroupRunning implements procenv.Sampler; liveness checks are never
// faulted (lying about a group's existence would make every drop look
// like a finished workload).
func (s *Sampler) GroupRunning(name string) bool { return s.inner.GroupRunning(name) }

// GroupActive implements procenv.Sampler.
func (s *Sampler) GroupActive(name string) bool { return s.inner.GroupActive(name) }

// GroupNames implements procenv.Sampler.
func (s *Sampler) GroupNames() []string { return s.inner.GroupNames() }
