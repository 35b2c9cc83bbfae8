package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cgroup"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/stream"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// The per-layer probes time calls into each layer's public functions
// from outside it. Three kinds:
//
//   - live probes run inside a probe span every probeEvery-th period of
//     the traced pass, against the host's live map and models (read-only
//     calls) or against harness-owned twins fed the same inputs (calls
//     that mutate);
//   - map probes run once per traced repetition against the last host's
//     final map, on copies rebuilt from ExportTemplate;
//   - standalone probes run once per traced invocation on inputs of
//     their own — the 10k-state map, the control plane, the cgroup and
//     crash-safety layers — and so report the same thing whatever the
//     workload.

const probeEvery = 50

// timeProbe times reps calls of f and records the per-call time under
// name, in the unit the name's suffix states.
func timeProbe(l *layerStats, name string, reps int, f func()) {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	per := float64(time.Since(t0)) / float64(reps)
	unit := float64(time.Microsecond)
	if strings.Contains(name, "_ms") {
		unit = float64(time.Millisecond)
	}
	l.add(name, per/unit)
}

// probeSet holds the twins: harness-owned instances of the layers whose
// calls mutate, fed the same inputs as the runtime's own.
type probeSet struct {
	layers *layerStats
	rng    *rand.Rand

	normalizer *metrics.Normalizer
	schema     *metrics.Schema
	models     *trajectory.ModeModels
	controller *throttle.Controller
	laneA      *throttle.LaneActuator
	laneB      *throttle.LaneActuator

	// Per-host caches, rebuilt when the host or its map size changes.
	host      *simHost
	pred      *predictor.Predictor
	reducer   *mds.OnlineReducer
	reducerN  int
	prevCoord mds.Coord
	step      int
}

func newProbeSet(seed int64, layers *layerStats) *probeSet {
	p := &probeSet{layers: layers, rng: rand.New(rand.NewSource(seed))}
	hostCfg := sim.DefaultHostConfig()
	// Construction from these constants cannot fail; a failure is a bug
	// in the probe, not in the input.
	must := func(err error) {
		if err != nil {
			panic("bench: probe twin: " + err.Error())
		}
	}
	var err error
	p.normalizer, err = metrics.NewNormalizer(metrics.DefaultRanges(hostCfg.Cores, hostCfg.MemoryMB, hostCfg.DiskMBps, hostCfg.NetMbps))
	must(err)
	p.schema, err = metrics.NewSchema([]string{sensitiveID, "batch"}, metrics.DefaultMetrics())
	must(err)
	p.models, err = trajectory.NewModeModels(trajectory.DefaultModelConfig())
	must(err)
	batch := []string{memBombID, cpuBombID}
	p.controller, err = throttle.New(throttle.DefaultConfig(), throttle.NewRecordingActuator(), batch, p.rng)
	must(err)
	arb, err := throttle.NewArbiter(throttle.NewRecordingActuator())
	must(err)
	p.laneA, p.laneB = arb.Lane("a"), arb.Lane("b")
	return p
}

// span times f as a child of the open probe span and as a sample of the
// layer metric.
func (p *probeSet) span(tr *tracer, period int, name string, reps int, f func()) {
	tr.begin(name, period)
	timeProbe(p.layers, name, reps, f)
	tr.end()
}

// live runs the cheap probes against host h between two periods.
func (p *probeSet) live(h *simHost, tr *tracer, period int) error {
	space := h.rt.Space()
	if space.Len() == 0 {
		return nil
	}
	if p.host != h {
		pred, err := predictor.New(predictor.DefaultConfig(), h.rt.Models(), p.rng)
		if err != nil {
			return err
		}
		p.host, p.pred, p.reducerN = h, pred, -1
	}
	batch := []string{memBombID, cpuBombID}
	isBatch := func(vm string) bool { return vm == memBombID || vm == cpuBombID }
	samples := h.env.Environment.Collect()
	mode := trajectory.DetectMode(h.env.SensitiveRunning(), h.env.BatchRunning())
	evs := h.rt.Events()
	cur := evs[len(evs)-1]
	st, err := space.State(cur.StateID)
	if err != nil {
		return err
	}

	var flatErr error
	p.span(tr, period, "metrics.normalize_flatten_us", 4, func() {
		agg := metrics.AggregateByRole("batch", samples, isBatch)
		_, flatErr = p.schema.Flatten(p.normalizer.NormalizeAll(agg))
	})
	if flatErr != nil {
		return flatErr
	}

	step := trajectory.StepBetween(p.prevCoord, st.Coord)
	p.prevCoord = st.Coord
	var obsErr error
	p.span(tr, period, "trajectory.observe_us", 16, func() {
		if err := p.models.Observe(mode, step); err != nil {
			obsErr = err
		}
	})
	if obsErr != nil {
		return obsErr
	}

	var stepErr error
	p.span(tr, period, "throttle.step_us", 8, func() {
		p.step++
		_, err := p.controller.Step(throttle.Input{
			Period:                p.step,
			PredictedViolation:    p.step%4 == 0,
			ActualViolation:       p.step%16 == 0,
			ViolationSeverity:     0.6,
			SensitiveStepDistance: step.Distance,
			BatchActive:           true,
		})
		if err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}

	var arbErr error
	p.span(tr, period, "throttle.arbiter_merge_us", 4, func() {
		for _, f := range []func([]string) error{p.laneA.Pause, p.laneB.Pause, p.laneA.Resume, p.laneB.Resume} {
			if err := f(batch); err != nil {
				arbErr = err
			}
		}
	})
	if arbErr != nil {
		return arbErr
	}

	// The reducer twin replays the map's vectors so a revisit scans what
	// the runtime's own reducer scans.
	if p.reducerN != space.Len() {
		eps := 0.03
		p.reducer = mds.NewOnlineReducer(eps)
		for _, v := range space.Vectors() {
			p.reducer.Observe(v)
		}
		p.reducerN = space.Len()
	}
	p.span(tr, period, "mds.reducer_observe_us", 4, func() { p.reducer.Observe(st.Vector) })

	coords, vectors := space.Coords(), space.Vectors()
	delta := make([]float64, len(vectors))
	for i, v := range vectors {
		delta[i] = mds.Euclidean(st.Vector, v)
	}
	var placeErr error
	p.span(tr, period, "mds.place_us", 1, func() {
		_, _, placeErr = mds.Place(coords, delta, mds.PlaceOptions{})
	})
	if placeErr != nil {
		return placeErr
	}

	p.span(tr, period, "statespace.violation_ranges_us", 1, func() { space.ViolationRanges() })
	p.span(tr, period, "statespace.nearest_safe_us", 16, func() { space.NearestSafe(st.Coord) })

	var predErr error
	p.span(tr, period, "predictor.predict_us", 1, func() {
		_, predErr = p.pred.Predict(space, mode, st.Coord)
	})
	return predErr
}

// finish runs the map probes against host h's final map.
func (p *probeSet) finish(h *simHost) error {
	l := p.layers
	space := h.rt.Space()
	tpl := h.rt.ExportTemplate(sensitiveID)
	vectors, prev := space.Vectors(), space.Coords()
	if len(vectors) < 3 {
		return fmt.Errorf("map probes need a learned map, have %d states", len(vectors))
	}
	l.set("statespace.states", float64(space.Len()))
	l.set("statespace.violation_states", float64(len(space.ViolationIDs())))

	var res *mds.LandmarkResult
	var err error
	timeProbe(l, "mds.landmark_refresh_ms", 1, func() {
		res, err = mds.LandmarkMDSVectors(vectors, templateLandmarks, mds.DefaultOptions(p.rng))
	})
	if err != nil {
		return err
	}
	var aligned []mds.Coord
	timeProbe(l, "mds.align_ms", 1, func() { aligned, err = mds.AlignTo(res.Config, prev) })
	if err != nil {
		return err
	}

	// Calls that write go to a copy rebuilt from the exported template.
	twin, err := statespace.Import(tpl)
	if err != nil {
		return err
	}
	timeProbe(l, "statespace.set_coords_ms", 1, func() { err = twin.SetCoords(aligned) })
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		vec := append([]float64(nil), vectors[i%len(vectors)]...)
		vec[0] += 0.001 * float64(i+1)
		at := mds.Coord{X: prev[i%len(prev)].X + 0.01, Y: prev[i%len(prev)].Y}
		// An Add invalidates the spatial index, so the query after it pays
		// for the rebuild: the cost a new-state period really sees.
		timeProbe(l, "statespace.add_then_query_us", 1, func() {
			twin.Add(at, vec, 0)
			twin.NearestSafe(at)
		})
	}

	patch := statespace.CloneTemplate(tpl)
	if len(patch.States) > 32 {
		patch.States = patch.States[len(patch.States)-32:]
	}
	for i := range patch.States {
		patch.States[i].Vector[0] += 0.1 // new states, not matches
	}
	d := &statespace.TemplateDelta{FromRevision: 1, ToRevision: 2, Patch: patch}
	timeProbe(l, "statespace.apply_delta_ms", 1, func() { _, err = statespace.ApplyDelta(tpl, d, 0.03) })
	return err
}

// fillCoreLayers derives the core and behaviour metrics of the traced
// repetition: period cost by kind, the collect/actuate boundaries, the
// period's self time, and the counters the hosts kept.
func fillCoreLayers(l *layerStats, r *repResult, q quality) {
	byKind := map[periodKind][]float64{}
	for i, k := range r.kinds {
		byKind[k] = append(byKind[k], r.costMS[i])
	}
	l.set("core.period_revisit_us_p50", 1000*median(byKind[kindRevisit]))
	l.set("core.period_newstate_us_p50", 1000*median(byKind[kindNewState]))
	l.set("core.period_refresh_ms_p50", median(byKind[kindRefresh]))
	l.set("core.periods", float64(len(r.kinds)))
	l.set("core.new_state_periods", float64(len(byKind[kindNewState])+len(byKind[kindRefresh])))
	l.set("core.refresh_periods", float64(len(byKind[kindRefresh])))
	l.set("core.actuations", float64(q.actuations))
	l.set("core.over_budget_share", overBudgetShare(r.costMS))

	self := selfTimes(r.tr.spans)
	for i, s := range r.tr.spans {
		us := float64(s.End-s.Start) / float64(time.Microsecond)
		switch s.Name {
		case "collect":
			l.add("core.collect_us", us)
		case "actuate":
			l.add("core.actuate_us", us)
		case "period":
			l.add("core.pipeline_us", float64(self[i])/float64(time.Microsecond))
		}
	}

	l.set("throttle.pauses", float64(q.pauses))
	l.set("throttle.resumes", float64(q.resumes))
	l.set("throttle.random_resumes", float64(q.randomResumes))
	l.set("throttle.throttled_share", ratio(float64(q.throttled), float64(q.periods)))
	l.set("predictor.tp", float64(q.tp))
	l.set("predictor.fp", float64(q.fp))
	l.set("predictor.fn", float64(q.fn))
	l.set("predictor.tn", float64(q.tn))
	l.set("predictor.candidate_hit_ratio", ratio(q.severitySum, float64(q.periods)))
	l.set("predictor.lead_periods_mean", ratio(q.leadPeriod, float64(q.leadViolations)))
}

// budgetMS is the paper's control-loop budget: 2% of a 1 s period.
const budgetMS = 20

func overBudgetShare(costMS []float64) float64 {
	over := 0
	for _, c := range costMS {
		if c > budgetMS {
			over++
		}
	}
	return ratio(float64(over), float64(len(costMS)))
}

// runStandaloneProbes runs the probes that need no workload.
func runStandaloneProbes(env *benchEnv, seed int64, l *layerStats) (err error) {
	dir, err := os.MkdirTemp(env.build, "probes-")
	if err != nil {
		return err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	rng := rand.New(rand.NewSource(seed))

	// ---- the map layers at sizes no workload reaches.
	randomVectors := func(n int) [][]float64 {
		vs := make([][]float64, n)
		for i := range vs {
			v := make([]float64, templateDim)
			for d := range v {
				v[d] = rng.Float64()
			}
			vs[i] = v
		}
		return vs
	}
	small := randomVectors(256)
	timeProbe(l, "mds.smacof_ms_n256", 1, func() {
		var delta *mds.Matrix
		if delta, err = mds.DistanceMatrix(small); err == nil {
			_, err = mds.SMACOF(delta, mds.DefaultOptions(rng))
		}
	})
	if err != nil {
		return err
	}
	big, err := fleetTemplate(seed, 10000)
	if err != nil {
		return err
	}
	bigVectors := make([][]float64, len(big.States))
	for i := range big.States {
		bigVectors[i] = big.States[i].Vector
	}
	timeProbe(l, "mds.landmark_refresh_ms_n10k", 1, func() {
		_, err = mds.LandmarkMDSVectors(bigVectors, templateLandmarks, mds.DefaultOptions(rng))
	})
	if err != nil {
		return err
	}
	bigSpace, err := statespace.Import(big)
	if err != nil {
		return err
	}
	bigSpace.ViolationRanges() // builds the spatial index once, as a warm runtime has
	timeProbe(l, "statespace.violation_ranges_ms_n10k", 1, func() { bigSpace.ViolationRanges() })
	models, err := trajectory.NewModeModels(trajectory.DefaultModelConfig())
	if err != nil {
		return err
	}
	pred, err := predictor.New(predictor.DefaultConfig(), models, rng)
	if err != nil {
		return err
	}
	at := mds.Coord{X: big.States[0].X, Y: big.States[0].Y}
	timeProbe(l, "predictor.predict_ms_n10k", 1, func() {
		_, err = pred.Predict(bigSpace, trajectory.ModeColocated, at)
	})
	if err != nil {
		return err
	}

	// ---- a small learned host, for a checkpoint and a template that
	// are the real thing.
	h, err := newSimHost(subSeed(seed, 0), nil)
	if err != nil {
		return err
	}
	for i := 0; i < 400; i++ {
		if err := h.step(); err != nil {
			return err
		}
		if _, err := h.rt.Period(); err != nil {
			return err
		}
	}
	tpl := h.rt.ExportTemplate(sensitiveID)

	// ---- crash safety: ledger appends (with their fsync) and checkpoints.
	ledger, err := resilience.OpenLedger(filepath.Join(dir, "ledger.json"))
	if err != nil {
		return err
	}
	ids := []string{"s/b1", "s/b2"}
	timeProbe(l, "resilience.ledger_record_us", 8, func() {
		if e := ledger.RecordFreeze(ids); e != nil {
			err = e
		}
		if e := ledger.RecordThaw(ids); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	ck := h.rt.Lane().Checkpoint()
	ckPath := filepath.Join(dir, "checkpoint.json")
	timeProbe(l, "resilience.checkpoint_save_ms", 4, func() {
		if e := resilience.SaveCheckpoint(ckPath, ck); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	timeProbe(l, "resilience.checkpoint_load_ms", 4, func() {
		if _, e := resilience.LoadCheckpoint(ckPath); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// ---- cgroup: one sample pass and one freeze/thaw on a file tree.
	tree := filepath.Join(dir, "cg")
	if _, err := newFakeHost(tree, seed); err != nil {
		return err
	}
	cfs := cgroup.DirFS{Root: tree}
	var groups []cgroup.Group
	for _, g := range daemonGroups {
		groups = append(groups, cgroup.Group{Name: g, Path: g})
	}
	collector, err := cgroup.NewCollector(cfs, groups)
	if err != nil {
		return err
	}
	timeProbe(l, "cgroup.sample_us", 16, func() { collector.Sample() })
	actuator, err := cgroup.NewActuator(cfs, cgroup.ActuatorConfig{MaxCPU: 4})
	if err != nil {
		return err
	}
	timeProbe(l, "cgroup.freeze_thaw_us", 8, func() {
		if e := actuator.Pause(daemonBatch); e != nil {
			err = e
		}
		if e := actuator.Resume(daemonBatch); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// ---- the control plane. Probes only: no end-to-end metric moves with
	// them today; a fleet workload is a later benchmark issue.
	reg, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "registry")})
	if err != nil {
		return err
	}
	if _, err := reg.Put("host-0", tpl); err != nil {
		return err
	}
	put := 0
	timeProbe(l, "registry.put_ms", 4, func() {
		put++
		up := statespace.CloneTemplate(tpl)
		up.States[0].Vector[0] += 0.1 * float64(put) // a changed state, so the Put merges something
		if _, e := reg.Put(fmt.Sprintf("host-%d", put), up); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	timeProbe(l, "registry.delta_since_us", 16, func() { reg.DeltaSince(sensitiveID, "", 1) })

	hub := stream.NewHub(stream.HubConfig{Epoch: 1, QueueLen: 256})
	for i := 0; i < 100; i++ {
		hub.Subscribe("")
	}
	evs := h.rt.Events()
	sev := daemon.PeriodEvent(evs[len(evs)-1])
	timeProbe(l, "stream.hub_publish_us_s100", 64, func() { hub.Publish(sev) })
	hub.Close()
	enc := stream.NewEncoder(io.Discard)
	timeProbe(l, "stream.sse_encode_us", 64, func() {
		if e := enc.WriteEvent(sev); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	srv, err := fleet.NewServer(fleet.ServerConfig{Registry: reg})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := fleet.NewClient(fleet.ClientConfig{BaseURL: ts.URL})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// One warm-up pull opens the connection the timed pulls reuse.
	if _, _, err := client.PullDelta(ctx, sensitiveID, "", 1); err != nil {
		return err
	}
	timeProbe(l, "fleet.delta_roundtrip_ms", 8, func() {
		if _, _, e := client.PullDelta(ctx, sensitiveID, "", 1); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	scorer, err := sched.NewMapScorer(map[string]*statespace.Template{sensitiveID: tpl})
	if err != nil {
		return err
	}
	placer, err := sched.NewPlacer(sched.PlacerConfig{Scorer: scorer})
	if err != nil {
		return err
	}
	hosts := make([]sched.Host, 100)
	for i := range hosts {
		hosts[i] = sched.Host{ID: fmt.Sprintf("h%03d", i), CPU: 400, MemoryMB: 4096}
	}
	cluster, err := sched.NewCluster(hosts)
	if err != nil {
		return err
	}
	for i := 0; i < len(hosts); i += 2 {
		err := cluster.PinSensitive(sched.SensitiveApp{Name: sensitiveID, Host: hosts[i].ID,
			Footprint: sched.Footprint{CPU: 150, MemoryMB: 900}})
		if err != nil {
			return err
		}
	}
	jobs := make([]sched.BatchJob, 200)
	for i := range jobs {
		jobs[i] = sched.BatchJob{ID: fmt.Sprintf("j%03d", i),
			Footprint: sched.Footprint{CPU: 20 + 60*rng.Float64(), MemoryMB: 100 + 400*rng.Float64()}}
	}
	timeProbe(l, "sched.place_all_ms", 1, func() { _, err = placer.PlaceAll(cluster, jobs) })
	return err
}
