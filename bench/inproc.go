package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/statespace"
)

// inprocSpec sizes one in-process workload. Every workload is an
// ensemble: hosts independent simulated hosts, each with its own
// sub-seed, run one after another. One host's sample path is chaotic in
// the seed — which states get labelled early decides its violation rate
// and even its period cost for the rest of the run (measured: 2.7× in
// p50, 10× in recall across ten seeds on one long-lived host) — so a
// single host measures the seed, not the code. Pooling many short hosts
// measures the expectation over sample paths, which repeats.
type inprocSpec struct {
	name string
	// hostsPerSecond scales the ensemble with -seconds so the timed phase
	// of all repetitions takes about that long at nominal machine speed.
	hostsPerSecond float64
	// learn periods run from an empty map before any fleet state arrives,
	// warm periods after it; both are set-up. timed periods are measured.
	learn, warm, timed int
	// ballast is the size of the fleet template, 0 for none. With merge
	// the host learns first and adopts the template mid-run through
	// Runtime.MergeTemplate (the streaming-fleet path); without, it
	// imports it before its first period (the bootstrap path).
	ballast int
	merge   bool
	tune    func(*core.Config)
	// maxNewShare fails the run when a larger share of timed periods
	// created a state; negative disables the check.
	maxNewShare float64
	// reps is K: fresh same-seed repetitions per untraced run. Short
	// periods need three — at tens of microseconds a scheduling blip is
	// several periods long, and the per-index minimum of two leaves it in
	// the tail; the map workloads spend the third repetition's time on a
	// larger ensemble instead, because there the spread between seeds is
	// the larger noise.
	reps int
}

func inprocSpecs() []inprocSpec {
	return []inprocSpec{
		{
			name:           "host-steady",
			hostsPerSecond: 10,
			learn:          200,
			timed:          400,
			maxNewShare:    -1,
			reps:           3,
		},
		{
			name:           "fleet-map-revisit",
			hostsPerSecond: 2.4,
			learn:          1000,
			warm:           50,
			timed:          1000,
			ballast:        1000,
			merge:          true,
			tune:           func(c *core.Config) { c.LandmarkThreshold = templateLandmarks },
			maxNewShare:    0.01,
			reps:           2,
		},
		{
			name:           "fleet-map-growth",
			hostsPerSecond: 0.8,
			warm:           16,
			timed:          64,
			ballast:        1000,
			tune: func(c *core.Config) {
				c.LandmarkThreshold = templateLandmarks
				c.DedupEpsilon = -1
			},
			maxNewShare: -1,
			reps:        2,
		},
	}
}

func (s inprocSpec) hosts(seconds int) int {
	n := int(math.Round(s.hostsPerSecond * float64(seconds)))
	if n < 2 {
		n = 2
	}
	return n
}

// quality pools the behaviour counters of every host in a repetition.
type quality struct {
	periods, violations, throttled     int
	pauses, resumes, randomResumes     int
	tp, fp, tn, fn                     int
	newStates, refreshes, actuations   int
	states, violationStates            int
	batchWork, severitySum, leadPeriod float64
	leadViolations                     int
}

func (q quality) violationRate() float64 { return ratio(float64(q.violations), float64(q.periods)) }
func (q quality) precision() float64     { return ratio(float64(q.tp), float64(q.tp+q.fp)) }
func (q quality) recall() float64        { return ratio(float64(q.tp), float64(q.tp+q.fn)) }
func (q quality) workPerPeriod() float64 { return ratio(q.batchWork, float64(q.periods)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// periodKind classifies a timed period for the per-layer split.
type periodKind uint8

const (
	kindRevisit periodKind = iota
	kindNewState
	kindRefresh
)

// repResult is what one repetition measured.
type repResult struct {
	setupS     float64   // normalised
	costMS     []float64 // normalised cost of each timed period
	speeds     []float64 // machine-speed estimate beside each timed period
	allocBytes uint64
	heapMB     float64
	hash       uint64
	q          quality
	// timedNewShare is the share of timed periods that created a state.
	timedNewShare float64
	kinds         []periodKind // traced pass only
	tr            *tracer
	layers        *layerStats
}

// fnv1a folds one period's event into the repetition's hash.
func fnv1a(h uint64, ev core.Event) uint64 {
	const prime = 1099511628211
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	id := uint32(ev.StateID)
	mix(byte(id))
	mix(byte(id >> 8))
	mix(byte(id >> 16))
	mix(byte(id >> 24))
	var flags byte
	if ev.NewState {
		flags |= 1
	}
	if ev.Violation {
		flags |= 2
	}
	mix(flags)
	mix(byte(ev.Action))
	return h
}

const fnvOffset = 14695981039346656037

// subSeed derives host j's seed from the run seed (splitmix64), so
// neighbouring run seeds do not share hosts.
func subSeed(seed int64, j int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(j+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocated() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runRep runs one repetition of an in-process workload: set-up for every
// host, then the timed loop. traced selects the span-recording pass.
func runRep(ctx context.Context, spec inprocSpec, seed int64, hosts int, traced bool) (*repResult, error) {
	clk := newClock()
	res := &repResult{hash: fnvOffset}
	nTimed := hosts * spec.timed
	refs := make([]refSample, 0, 13*(nTimed+2*hosts+4))
	res.costMS = make([]float64, 0, nTimed)
	res.speeds = make([]float64, 0, nTimed)
	var probes *probeSet
	if traced {
		res.tr = newTracer(clk)
		res.tr.spans = make([]span, 0, 4*nTimed)
		res.kinds = make([]periodKind, 0, nTimed)
		res.layers = newLayerStats()
		probes = newProbeSet(seed, res.layers)
	}
	nowNS := func() int64 { return int64(clk.now()) }

	// ---- set-up: the fleet template, then every host up to its first
	// timed period. Each chunk is normalised by the machine speed
	// measured either side of it.
	refs = clk.ref(refs, 12)
	chunk := func(name string, f func() error) error {
		lo := len(refs) - 12
		t0 := clk.now()
		if err := f(); err != nil {
			return err
		}
		t1 := clk.now()
		refs = clk.ref(refs, 12)
		s := speedAt(refs, lo, len(refs)-1, t0, t1)
		res.setupS += (t1 - t0).Seconds() / s
		if traced {
			res.layers.add(name, float64(t1-t0)/float64(time.Millisecond)/s)
		}
		return nil
	}
	var ballast *statespace.Template
	if spec.ballast > 0 {
		err := chunk("harness.template_build_ms", func() (err error) {
			ballast, err = fleetTemplate(templateSeed, spec.ballast)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	run := func(h *simHost, n int) error {
		for i := 0; i < n; i++ {
			if err := h.step(); err != nil {
				return err
			}
			ev, err := h.rt.Period()
			if err != nil {
				return fmt.Errorf("set-up period %d: %w", h.tick, err)
			}
			res.hash = fnv1a(res.hash, ev)
			h.note(ev)
		}
		return nil
	}
	all := make([]*simHost, hosts)
	for j := range all {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var h *simHost
		err := chunk("harness.host_setup_ms", func() (err error) {
			if h, err = newSimHost(subSeed(seed, j), spec.tune); err != nil {
				return err
			}
			if ballast != nil && !spec.merge {
				t0 := clk.now()
				if err := h.rt.ImportTemplate(ballast); err != nil {
					return err
				}
				if traced {
					res.layers.add("core.import_template_ms", float64(clk.now()-t0)/float64(time.Millisecond))
				}
			}
			if err := run(h, spec.learn); err != nil {
				return err
			}
			if ballast != nil && spec.merge {
				t0 := clk.now()
				if _, err := h.rt.MergeTemplate(ballast); err != nil {
					return err
				}
				if traced {
					res.layers.add("core.merge_template_ms", float64(clk.now()-t0)/float64(time.Millisecond))
				}
			}
			return run(h, spec.warm)
		})
		if err != nil {
			return nil, fmt.Errorf("host %d: %w", j, err)
		}
		all[j] = h
	}

	// ---- timed loop: periods back to back (closed loop, no ticker), the
	// reference kernel after each one.
	runtime.GC()
	type interval struct {
		start, end time.Duration
		refLo      int
	}
	ivals := make([]interval, 0, nTimed)
	timedNew := 0
	for j, h := range all {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// idx is the period index every span of one period shares; the
		// boundary callbacks read it when they fire inside Period().
		idx, refreshes := 0, 0
		if traced {
			h.env.now, h.act.now = nowNS, nowNS
			h.env.onCollect = func(s, e int64) { res.tr.leaf("collect", idx, s, e) }
			h.act.onActuate = func(s, e int64) { res.tr.leaf("actuate", idx, s, e) }
			refreshes = h.rt.Report().Refreshes
		}
		for p := 0; p < spec.timed; p++ {
			idx = j*spec.timed + p
			if err := h.step(); err != nil {
				return nil, err
			}
			refLo := len(refs) - 3
			a0 := heapAllocated()
			res.tr.begin("period", idx) // a nil tracer (the untraced pass) records nothing
			t0 := clk.now()
			ev, err := h.rt.Period()
			t1 := clk.now()
			res.tr.end()
			res.allocBytes += heapAllocated() - a0
			if err != nil {
				return nil, fmt.Errorf("host %d period %d: %w", j, p, err)
			}
			refs = clk.ref(refs, refsAfter(t1-t0))
			ivals = append(ivals, interval{t0, t1, refLo})
			res.hash = fnv1a(res.hash, ev)
			h.note(ev)
			if ev.NewState {
				timedNew++
			}
			if !traced {
				continue
			}
			kind := kindRevisit
			if ev.NewState {
				kind = kindNewState
				if now := h.rt.Report().Refreshes; now != refreshes {
					kind, refreshes = kindRefresh, now
				}
			}
			res.kinds = append(res.kinds, kind)
			if idx%probeEvery == 0 {
				res.tr.begin("probe", idx)
				if err := probes.live(h, res.tr, idx); err != nil {
					return nil, err
				}
				res.tr.end()
				refs = clk.ref(refs, 3)
			}
		}
		h.env.onCollect, h.act.onActuate = nil, nil
	}
	res.timedNewShare = ratio(float64(timedNew), float64(len(ivals)))
	for i, iv := range ivals {
		hi := len(refs) - 1
		if i+1 < len(ivals) {
			hi = ivals[i+1].refLo + 2
		}
		s := speedAt(refs, iv.refLo, hi, iv.start, iv.end)
		res.speeds = append(res.speeds, s)
		res.costMS = append(res.costMS, float64(iv.end-iv.start)/float64(time.Millisecond)/s)
	}

	// ---- what the hosts learned and did, and what they hold.
	for _, h := range all {
		h.pool(&res.q)
	}
	if traced {
		if err := probes.finish(all[len(all)-1]); err != nil {
			return nil, err
		}
	}
	withHosts := liveHeapMB()
	for i := range all {
		all[i] = nil
	}
	res.heapMB = withHosts - liveHeapMB()
	return res, nil
}

// refsAfter is how many reference runs follow a timed period: three, or
// twelve after a period longer than a millisecond — long enough for the
// machine to have changed mode inside it.
func refsAfter(d time.Duration) int {
	if d > time.Millisecond {
		return 12
	}
	return 3
}

// note accumulates per-host event statistics that Report does not keep.
func (h *simHost) note(ev core.Event) {
	if ev.Throttled {
		h.throttled++
	}
	if ev.NewState {
		h.newStates++
	}
	h.severity += ev.Severity
	h.trail = append(h.trail, trailPoint{violation: ev.Violation, predicted: ev.Predicted})
}

// pool adds this host's counters to the repetition's.
func (h *simHost) pool(q *quality) {
	rep := h.rt.Report()
	tp, fp, tn, fn := h.rt.Tracker().Counts()
	q.periods += rep.Periods
	q.violations += rep.Violations
	q.throttled += h.throttled
	q.pauses += rep.Pauses
	q.resumes += rep.Resumes
	q.randomResumes += rep.RandomResumes
	q.tp, q.fp, q.tn, q.fn = q.tp+tp, q.fp+fp, q.tn+tn, q.fn+fn
	q.newStates += h.newStates
	q.refreshes += rep.Refreshes
	q.actuations += h.act.actuations
	q.states += rep.States
	q.violationStates += rep.ViolationStates
	q.batchWork += h.batchWork()
	q.severitySum += h.severity
	recs := make([]experiments.TickRecord, len(h.trail))
	for i, p := range h.trail {
		recs[i] = experiments.TickRecord{Violation: p.violation, Predicted: p.predicted, SensitiveRunning: true}
	}
	lead := experiments.LeadTimes(recs)
	q.leadViolations += lead.Violations
	q.leadPeriod += lead.MeanLead * float64(lead.Violations)
}
