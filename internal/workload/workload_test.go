package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestConstantAndSeries(t *testing.T) {
	if got := Constant(-5).Arrivals(0); got != 0 {
		t.Fatalf("negative constant should clamp to 0, got %v", got)
	}
	if got := Constant(12).Arrivals(99); got != 12 {
		t.Fatalf("constant = %v, want 12", got)
	}
	s := NewSeries([]float64{1, 2, 3})
	if got := s.Arrivals(1); got != 2 {
		t.Fatalf("series[1] = %v, want 2", got)
	}
	if got := s.Arrivals(100); got != 3 {
		t.Fatalf("series past end should hold final value, got %v", got)
	}
	if got := s.Arrivals(-1); got != 1 {
		t.Fatalf("series before start should clamp, got %v", got)
	}
	if got := Series(nil).Arrivals(0); got != 0 {
		t.Fatalf("empty series = %v, want 0", got)
	}
}

func TestPoissonDeterministicAndMeanPreserving(t *testing.T) {
	// nil RNG degrades to the fluid mean.
	p := NewPoisson(Constant(7), nil)
	if got := p.Arrivals(0); got != 7 {
		t.Fatalf("nil-rng poisson = %v, want mean 7", got)
	}
	// Same seed produces the same series.
	a := NewPoisson(Constant(10), rand.New(rand.NewSource(42)))
	b := NewPoisson(Constant(10), rand.New(rand.NewSource(42)))
	var sumA float64
	for i := 0; i < 2000; i++ {
		va, vb := a.Arrivals(i), b.Arrivals(i)
		if va != vb {
			t.Fatalf("tick %d: same seed diverged (%v vs %v)", i, va, vb)
		}
		sumA += va
	}
	if mean := sumA / 2000; math.Abs(mean-10) > 0.5 {
		t.Fatalf("poisson mean drifted: got %v, want ~10", mean)
	}
	// High-λ path (normal approximation) stays near the mean too.
	hi := NewPoisson(Constant(500), rand.New(rand.NewSource(7)))
	var sumHi float64
	for i := 0; i < 2000; i++ {
		sumHi += hi.Arrivals(i)
	}
	if mean := sumHi / 2000; math.Abs(mean-500) > 5 {
		t.Fatalf("high-rate poisson mean drifted: got %v, want ~500", mean)
	}
}

func TestDiurnalCycle(t *testing.T) {
	d := Diurnal{Base: 100, Amplitude: 0.5, PeriodTicks: 24, PeakTick: 12}
	if got := d.Arrivals(12); math.Abs(got-150) > 1e-9 {
		t.Fatalf("peak = %v, want 150", got)
	}
	if got := d.Arrivals(0); math.Abs(got-50) > 1e-9 {
		t.Fatalf("trough = %v, want 50", got)
	}
	if got, want := d.Arrivals(36), d.Arrivals(12); math.Abs(got-want) > 1e-9 {
		t.Fatalf("period should repeat: %v vs %v", got, want)
	}
	flat := Diurnal{Base: 10}
	if got := flat.Arrivals(5); got != 10 {
		t.Fatalf("zero-period diurnal should be flat, got %v", got)
	}
}

func TestTraceReplay(t *testing.T) {
	if _, err := NewTraceReplay(nil, 1, 1); err == nil {
		t.Fatal("empty trace should error")
	}
	pts := []trace.Point{{Rate: 100}, {Rate: 200}}
	if _, err := NewTraceReplay(pts, 0, 1); err == nil {
		t.Fatal("non-positive scale should error")
	}
	r, err := NewTraceReplay(pts, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Ticks(); got != 6 {
		t.Fatalf("Ticks = %d, want 6", got)
	}
	if got := r.Arrivals(2); got != 50 {
		t.Fatalf("sample 0 = %v, want 50", got)
	}
	if got := r.Arrivals(3); got != 100 {
		t.Fatalf("sample 1 = %v, want 100", got)
	}
	if got := r.Arrivals(999); got != 100 {
		t.Fatalf("past end should hold last rate, got %v", got)
	}
}

func TestQueueFIFOAndLatency(t *testing.T) {
	q := NewQueue(0)
	q.Push(0, 4)
	q.Push(1, 4)
	comps := q.Serve(1, 6)
	if len(comps) != 2 {
		t.Fatalf("expected 2 cohorts served, got %d", len(comps))
	}
	if comps[0].Latency != 2 || comps[0].Count != 4 {
		t.Fatalf("oldest cohort: latency %v count %v, want 2 and 4", comps[0].Latency, comps[0].Count)
	}
	if comps[1].Latency != 1 || comps[1].Count != 2 {
		t.Fatalf("newer cohort: latency %v count %v, want 1 and 2", comps[1].Latency, comps[1].Count)
	}
	if got := q.Depth(); got != 2 {
		t.Fatalf("depth after serve = %v, want 2", got)
	}
	if got := q.OldestAge(3); got != 2 {
		t.Fatalf("oldest age = %v, want 2", got)
	}
}

func TestQueueCapacityShedding(t *testing.T) {
	q := NewQueue(10)
	adm, drop := q.Push(0, 8)
	if adm != 8 || drop != 0 {
		t.Fatalf("first push: admitted %v dropped %v", adm, drop)
	}
	adm, drop = q.Push(1, 5)
	if adm != 2 || drop != 3 {
		t.Fatalf("overflow push: admitted %v dropped %v, want 2 and 3", adm, drop)
	}
	if q.Dropped() != 3 || q.Arrived() != 13 {
		t.Fatalf("cumulative: dropped %v arrived %v", q.Dropped(), q.Arrived())
	}
}

func TestQueueSameBirthMerges(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 100; i++ {
		q.Push(5, 1)
	}
	var cohorts int
	q.WaitingAges(5, func(age, count float64) {
		cohorts++
		if count != 100 {
			t.Fatalf("merged cohort count = %v, want 100", count)
		}
	})
	if cohorts != 1 {
		t.Fatalf("same-birth pushes should merge into one cohort, got %d", cohorts)
	}
}

func TestWindowPercentile(t *testing.T) {
	w := NewWindow(10)
	w.Add(0, 1, 99)
	w.Add(0, 50, 1)
	if got := w.Percentile(0.95, nil); got != 1 {
		t.Fatalf("p95 = %v, want 1", got)
	}
	if got := w.Percentile(0.999, nil); got != 50 {
		t.Fatalf("p99.9 = %v, want 50", got)
	}
	// Censored backlog raises the percentile even with no completions.
	empty := NewWindow(10)
	if got := empty.Percentile(0.99, []Completion{{Latency: 20, Count: 5}}); got != 20 {
		t.Fatalf("censored-only p99 = %v, want 20", got)
	}
	if got := empty.Percentile(0.99, nil); got != 0 {
		t.Fatalf("empty window = %v, want 0", got)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(5)
	w.Add(0, 100, 10)
	w.Add(3, 1, 10)
	if got := w.Count(); got != 20 {
		t.Fatalf("count = %v, want 20", got)
	}
	w.Advance(6) // tick 0 entry is now 6 ticks old, outside a 5-tick window
	if got := w.Count(); got != 10 {
		t.Fatalf("count after eviction = %v, want 10", got)
	}
	if got := w.Percentile(0.99, nil); got != 1 {
		t.Fatalf("p99 after eviction = %v, want 1", got)
	}
}

func TestEngineSteadyStateHealthy(t *testing.T) {
	e, err := NewEngine(Config{Process: Constant(10), CPUPerRequest: 2, MaxConcurrency: 20})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 50; tick++ {
		demand := e.BeginTick(tick)
		if tick > 0 && demand != 20 { // 10 queued × 2 CPU each
			t.Fatalf("tick %d: demand = %v, want 20", tick, demand)
		}
		e.EndTick(tick, demand/2) // full grant
	}
	v, thr := e.QoS()
	if v != 1 {
		t.Fatalf("steady-state QoS = %v, want 1", v)
	}
	if thr != 0.95 {
		t.Fatalf("default threshold = %v, want 0.95", thr)
	}
	st := e.Stats()
	if st.Depth != 0 {
		t.Fatalf("steady-state depth = %v, want 0", st.Depth)
	}
	if st.PercentileLatency != 1 {
		t.Fatalf("steady-state p99 = %v, want 1", st.PercentileLatency)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{CPUPerRequest: 1}); err == nil {
		t.Fatal("missing process should error")
	}
	if _, err := NewEngine(Config{Process: Constant(1)}); err == nil {
		t.Fatal("missing CPUPerRequest should error")
	}
}

// TestEngineFreezeThawDrainRecovery is the satellite-required behavior: a
// freeze stalls service while arrivals continue, so on thaw the QoS is
// violated (the backlog's queueing delay) and only recovers after the
// window slides past the drain — the signal with memory that closed-loop
// grant-ratio QoS cannot produce.
func TestEngineFreezeThawDrainRecovery(t *testing.T) {
	e, err := NewEngine(Config{
		Process:        Constant(10),
		CPUPerRequest:  1,
		MaxConcurrency: 40,
		TargetLatency:  3,
		WindowTicks:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(tick int) float64 {
		demand := e.BeginTick(tick)
		e.EndTick(tick, demand) // CPUPerRequest=1: grant == requests
		v, _ := e.QoS()
		return v
	}
	for tick := 0; tick < 20; tick++ {
		if v := serve(tick); v != 1 {
			t.Fatalf("pre-freeze tick %d: QoS = %v, want 1", tick, v)
		}
	}
	// Ticks 20..34 the container is frozen: no BeginTick/EndTick calls at
	// all, but the arrival process does not pause.
	thaw := 35
	vThaw := serve(thaw)
	if vThaw >= 0.95 {
		t.Fatalf("post-thaw QoS = %v, want violation (< 0.95): the 150-request backlog has 15 ticks of queueing delay", vThaw)
	}
	st := e.Stats()
	if want := float64(thaw+1) * 10; st.TotalArrived != want {
		t.Fatalf("arrivals during freeze were lost: total %v, want %v", st.TotalArrived, want)
	}
	// With MaxConcurrency 40 vs arrival rate 10, the backlog drains at 30
	// requests/tick; after the drain plus a window's worth of ticks the
	// QoS must be fully recovered.
	recovered := -1
	for tick := thaw + 1; tick < thaw+40; tick++ {
		if v := serve(tick); v == 1 && recovered < 0 {
			recovered = tick
		}
	}
	if recovered < 0 {
		t.Fatal("QoS never recovered after backlog drain")
	}
	if e.Stats().Depth != 0 {
		t.Fatalf("backlog should be drained, depth = %v", e.Stats().Depth)
	}
}

func TestEngineCensoredStarvationDegradesQoS(t *testing.T) {
	// A fully starved engine (zero grant) must show degraded QoS even
	// though no starved request ever completes.
	e, err := NewEngine(Config{Process: Constant(10), CPUPerRequest: 1, TargetLatency: 3})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 10; tick++ {
		e.BeginTick(tick)
		e.EndTick(tick, 0)
	}
	v, _ := e.QoS()
	if v >= 0.95 {
		t.Fatalf("starved QoS = %v, want violation from censored backlog", v)
	}
	if e.Stats().PercentileLatency < 9 {
		t.Fatalf("censored p99 = %v, want ≥ 9 (oldest cohort age)", e.Stats().PercentileLatency)
	}
}

func TestEngineDropPenaltyCountsAgainstSLO(t *testing.T) {
	e, err := NewEngine(Config{
		Process:       Constant(100),
		CPUPerRequest: 1,
		QueueCap:      50,
		TargetLatency: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.BeginTick(0)
	st := e.EndTick(0, 0)
	if st.Dropped != 50 {
		t.Fatalf("dropped = %v, want 50", st.Dropped)
	}
	if v, _ := e.QoS(); v >= 0.95 {
		t.Fatalf("QoS with 50%% sheds = %v, want violation", v)
	}
}

func TestChainEndToEndLatency(t *testing.T) {
	c, err := NewChain(ChainConfig{
		Process: Constant(10),
		Stages: []StageConfig{
			{CPUPerRequest: 1, MaxConcurrency: 40},
			{CPUPerRequest: 2, MaxConcurrency: 40},
			{CPUPerRequest: 1, MaxConcurrency: 40},
		},
		TargetLatency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var st ChainStats
	for tick := 0; tick < 30; tick++ {
		c.BeginTick(tick)
		for i := 0; i < c.NumStages(); i++ {
			demand := c.StageDemand(i)
			c.ServeStage(i, tick, demand/c.Config().Stages[i].CPUPerRequest)
		}
		st = c.EndTick(tick)
	}
	// Fully granted, the pipeline settles at 1 tick per stage... but each
	// stage serves in the same tick the work arrives (demand recomputed
	// per stage), so end-to-end latency is 1–3 ticks depending on hop
	// timing. It must be within the 4-tick SLO.
	if v, _ := c.QoS(); v != 1 {
		t.Fatalf("fully-granted chain QoS = %v (p99 %v), want 1", v, st.PercentileLatency)
	}
	if st.TotalServed < 250 {
		t.Fatalf("chain throughput too low: served %v of %v", st.TotalServed, st.TotalArrived)
	}
}

func TestChainBottleneckStageDegradesEndToEnd(t *testing.T) {
	c, err := NewChain(ChainConfig{
		Process: Constant(10),
		Stages: []StageConfig{
			{CPUPerRequest: 1, MaxConcurrency: 40},
			{CPUPerRequest: 1, MaxConcurrency: 40},
		},
		TargetLatency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 40; tick++ {
		c.BeginTick(tick)
		// Stage 0 fully granted; stage 1 throttled to half the arrival rate.
		c.ServeStage(0, tick, c.StageDemand(0))
		c.ServeStage(1, tick, 5)
		c.EndTick(tick)
	}
	if v, _ := c.QoS(); v >= 0.95 {
		t.Fatalf("bottlenecked chain QoS = %v, want violation", v)
	}
	st := c.Stats()
	if st.StageDepths[1] < 100 {
		t.Fatalf("bottleneck backlog should accumulate at stage 1, depths %v", st.StageDepths)
	}
	if st.StageDepths[0] > 1 {
		t.Fatalf("stage 0 should stay drained, depths %v", st.StageDepths)
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain(ChainConfig{Stages: []StageConfig{{CPUPerRequest: 1}}}); err == nil {
		t.Fatal("missing process should error")
	}
	if _, err := NewChain(ChainConfig{Process: Constant(1)}); err == nil {
		t.Fatal("zero stages should error")
	}
	if _, err := NewChain(ChainConfig{Process: Constant(1), Stages: []StageConfig{{}}}); err == nil {
		t.Fatal("stage without CPUPerRequest should error")
	}
}

// BenchmarkReplayWeek measures raw engine throughput replaying a week of
// diurnal load at one tick per trace sample — the per-tick cost that
// bounds how fast the scenario zoo can replay multi-day traces.
func BenchmarkReplayWeek(b *testing.B) {
	cfg := trace.Config{Days: 7, SamplesPerHour: 60, BaseRate: 1000, DailyAmplitude: 0.6}
	pts, err := trace.Generate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		replay, err := NewTraceReplay(pts, 0.05, 1)
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(Config{Process: replay, CPUPerRequest: 1, MaxConcurrency: 100})
		if err != nil {
			b.Fatal(err)
		}
		for tick := 0; tick < replay.Ticks(); tick++ {
			demand := e.BeginTick(tick)
			e.EndTick(tick, demand*0.9) // mild perpetual shortfall keeps the queue busy
		}
	}
}
