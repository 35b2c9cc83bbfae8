package main

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/stats"
)

// runInproc runs one in-process workload: K fresh same-seed repetitions,
// folded per period index, checked against each other.
func runInproc(ctx context.Context, env *benchEnv, spec inprocSpec, seed int64, seconds int, traced bool) (*result, []string, error) {
	hosts := spec.hosts(seconds)
	untraced := spec.reps
	if traced {
		untraced = spec.reps - 1
	}
	var reps []*repResult
	for k := 0; k < untraced; k++ {
		r, err := runRep(ctx, spec, seed, hosts, false)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
	}
	var tracedRep *repResult
	if traced {
		r, err := runRep(ctx, spec, seed, hosts, true)
		if err != nil {
			return nil, nil, err
		}
		tracedRep = r
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var notes []string
	fail := func(format string, args ...any) {
		res.Correct = false
		notes = append(notes, "FAILED CHECK: "+fmt.Sprintf(format, args...))
	}

	// Same seed ⇒ same bits: every repetition, traced or not, must have
	// produced the same event sequence and the same behaviour counters.
	// This is what makes the per-index minimum legal.
	all := append([]*repResult(nil), reps...)
	if tracedRep != nil {
		all = append(all, tracedRep)
	}
	for _, msg := range sameBits(all) {
		fail("%s", msg)
	}
	q := all[0].q
	if q.violations == 0 || q.tp+q.fp == 0 || q.pauses == 0 {
		fail("degenerate run: %d violations, %d predictions, %d pauses", q.violations, q.tp+q.fp, q.pauses)
	}
	timedPeriods := len(all[0].costMS)
	if spec.maxNewShare >= 0 {
		// newStates counts set-up too; the gate is on the timed share, so
		// recount from the series length of one host.
		if share := all[0].timedNewShare; share > spec.maxNewShare {
			fail("%.2f%% of timed periods created a state (limit %.2f%%)", 100*share, 100*spec.maxNewShare)
		}
	}
	for _, r := range all {
		res.Attempted += len(r.costMS)
	}

	var series [][]float64
	var setups, means, speeds []float64
	for _, r := range reps {
		series = append(series, r.costMS)
		setups = append(setups, r.setupS)
		means = append(means, stats.Mean(r.costMS))
		speeds = append(speeds, median(r.speeds))
	}
	folded := sortedCopy(minPerIndex(series))
	tail := tailPercentile(len(folded))
	notes = append(notes,
		fmt.Sprintf("%d hosts × %d timed periods = %d samples per repetition, %d repetitions; p%d = %.5g ms (%d samples beyond it)",
			hosts, spec.timed, timedPeriods, len(reps), tail, percentile(folded, tail), samplesBeyond(len(folded), tail)),
		fmt.Sprintf("event hash %016x; machine speed %.3f× nominal; repetition means %v ms; set-ups %v s", all[0].hash, median(speeds), fmtAll(means), fmtAll(setups)),
		fmt.Sprintf("pooled: %d periods, %d violations, tp=%d fp=%d tn=%d fn=%d, %d pauses, %d resumes (%d random), %d new states, %d refreshes",
			q.periods, q.violations, q.tp, q.fp, q.tn, q.fn, q.pauses, q.resumes, q.randomResumes, q.newStates, q.refreshes),
	)

	if !traced {
		var allocs, heaps []float64
		for _, r := range reps {
			allocs = append(allocs, float64(r.allocBytes)/1024/float64(len(r.costMS)))
			heaps = append(heaps, r.heapMB)
		}
		values := map[string]float64{
			"setup_s":             median(setups),
			"period_ms_p50":       percentile(folded, 50),
			"period_ms_mean":      stats.Mean(folded),
			"alloc_kb_per_period": median(allocs),
			"mem_mb":              median(heaps),
			"qos_violation_rate":  q.violationRate(),
			"batch_work":          q.workPerPeriod(),
			"pred_precision":      q.precision(),
			"pred_recall":         q.recall(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
		return res, notes, nil
	}

	l := tracedRep.layers
	fillCoreLayers(l, tracedRep, q)
	l.set("core.period_ms_p95", percentile(folded, tail))
	if err := runStandaloneProbes(env, seed, l); err != nil {
		return nil, nil, err
	}
	l.set("harness.machine_speed", median(speeds))
	lo, hi := means[0], means[0]
	for _, m := range means {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	l.set("harness.rep_spread", ratio(hi, lo))
	l.set("harness.trace_overhead_ratio", ratio(stats.Mean(tracedRep.costMS), stats.Mean(means)))
	if !childrenFit(tracedRep.tr.spans) {
		fail("a span does not fit inside its parent")
	}
	path := filepath.Join(env.build, "spans-"+spec.name+".json")
	if err := writeSpans(path, spec.name, seed, tracedRep.tr.spans); err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("%d spans written to %s", len(tracedRep.tr.spans), path))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: l.value(m.name), Unit: m.unit}
	}
	return res, notes, nil
}

func fmtAll(x []float64) []string {
	out := make([]string, len(x))
	for i, v := range x {
		out[i] = fmt.Sprintf("%.4g", v)
	}
	return out
}

// sameBits reports every repetition whose event hash or behaviour
// counters differ from the first's.
func sameBits(reps []*repResult) []string {
	var out []string
	for k, r := range reps[1:] {
		if r.hash != reps[0].hash {
			out = append(out, fmt.Sprintf("repetition %d event hash %016x differs from repetition 0's %016x", k+1, r.hash, reps[0].hash))
		}
		if r.q != reps[0].q {
			out = append(out, fmt.Sprintf("repetition %d behaviour counters differ from repetition 0's", k+1))
		}
	}
	return out
}
