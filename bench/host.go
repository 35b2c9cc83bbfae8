package main

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/workload"
)

const (
	sensitiveID = "web"
	memBombID   = "membomb"
	cpuBombID   = "cpubomb"
	memBombTick = 40
	cpuBombTick = 30
)

// simHost is the paper's single-host setting on the simulator: one
// open-loop service under diurnal Poisson arrivals, a memory bomb and a
// CPU bomb as batch co-runners, and a core.Runtime protecting the
// service. The seed drives the arrival noise, the bombs' jitter and the
// runtime's own sampling; the structure (diurnal shape, bomb schedule)
// is fixed so period cost and prediction quality are properties of the
// code, not of the seed.
type simHost struct {
	sim  *sim.Simulator
	rt   *core.Runtime
	env  *timedEnv
	act  *timedActuator
	tick int

	memBomb, cpuBomb sim.App

	// Per-host event statistics core.Report does not keep.
	throttled, newStates int
	severity             float64
	trail                []trailPoint
}

// trailPoint is what lead-time analysis needs of one period.
type trailPoint struct{ violation, predicted bool }

func newSimHost(seed int64, tune func(*core.Config)) (*simHost, error) {
	hostCfg := sim.DefaultHostConfig()
	simulator, err := sim.NewSimulator(hostCfg)
	if err != nil {
		return nil, err
	}
	root := rand.New(rand.NewSource(seed))
	sub := func() *rand.Rand { return rand.New(rand.NewSource(root.Int63())) }

	svc, err := apps.NewOpenLoopService(apps.DefaultOpenLoopConfig(apps.Mixed,
		workload.NewPoisson(workload.Diurnal{
			Base:        70,
			Amplitude:   0.6,
			PeriodTicks: 144,
			PeakTick:    72,
		}, sub())))
	if err != nil {
		return nil, err
	}
	if _, err := simulator.AddContainer(sensitiveID, svc); err != nil {
		return nil, err
	}
	batch := []string{memBombID, cpuBombID}
	cfg := core.DefaultConfig(sensitiveID, batch, metrics.DefaultRanges(
		hostCfg.Cores, hostCfg.MemoryMB, hostCfg.DiskMBps, hostCfg.NetMbps))
	cfg.Seed = root.Int63()
	if tune != nil {
		tune(&cfg)
	}
	h := &simHost{
		sim:     simulator,
		env:     &timedEnv{Environment: experiments.NewSimEnvironment(simulator, sensitiveID, batch, svc)},
		act:     &timedActuator{inner: experiments.NewSimActuator(simulator)},
		memBomb: apps.NewMemoryBomb(apps.DefaultMemoryBombConfig(), sub()),
		cpuBomb: apps.NewCPUBomb(apps.DefaultCPUBombConfig()),
	}
	h.rt, err = core.New(cfg, h.env, h.act)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// step advances the simulated host by one tick, scheduling the bombs
// when their start tick comes. It is the host's work, not Stay-Away's,
// and is never inside a timed interval.
func (h *simHost) step() error {
	switch h.tick {
	case cpuBombTick:
		if _, err := h.sim.AddContainer(cpuBombID, h.cpuBomb); err != nil {
			return err
		}
	case memBombTick:
		if _, err := h.sim.AddContainer(memBombID, h.memBomb); err != nil {
			return err
		}
	}
	h.sim.Step()
	h.tick++
	return nil
}

// batchWork is the effective CPU the batch containers have performed.
func (h *simHost) batchWork() float64 {
	var w float64
	for _, id := range []string{memBombID, cpuBombID} {
		if c, err := h.sim.Container(id); err == nil {
			w += c.TotalEffectiveCPU()
		}
	}
	return w
}

// timedEnv wraps the Environment the harness hands the runtime so the
// traced pass can time the collect boundary from outside.
type timedEnv struct {
	core.Environment
	onCollect func(start, end int64)
	now       func() int64
}

func (e *timedEnv) Collect() []metrics.Sample {
	if e.onCollect == nil {
		return e.Environment.Collect()
	}
	t0 := e.now()
	s := e.Environment.Collect()
	e.onCollect(t0, e.now())
	return s
}

// timedActuator is the same for the actuation boundary. It forwards
// SetLevel so graded policies keep working.
type timedActuator struct {
	inner      throttle.GradedActuator
	onActuate  func(start, end int64)
	now        func() int64
	actuations int
}

var _ throttle.GradedActuator = (*timedActuator)(nil)

func (a *timedActuator) timed(f func() error) error {
	a.actuations++
	if a.onActuate == nil {
		return f()
	}
	t0 := a.now()
	err := f()
	a.onActuate(t0, a.now())
	return err
}

func (a *timedActuator) Pause(ids []string) error {
	return a.timed(func() error { return a.inner.Pause(ids) })
}

func (a *timedActuator) Resume(ids []string) error {
	return a.timed(func() error { return a.inner.Resume(ids) })
}

func (a *timedActuator) SetLevel(ids []string, level float64) error {
	return a.timed(func() error { return a.inner.SetLevel(ids, level) })
}
