package main

// The metric schema: BENCHMARK.json lists exactly these, and a unit test
// keeps the two in step.

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

const defaultSeconds = 12

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"period_ms_p50", "ms", "lower", 0.25},
	{"period_ms_mean", "ms", "lower", 0.25},
	{"alloc_kb_per_period", "KiB", "lower", 0.06},
	{"mem_mb", "MiB", "lower", 0.02},
	{"qos_violation_rate", "ratio", "lower", 0.25},
	{"batch_work", "cpu/period", "higher", 0.15},
	{"pred_precision", "ratio", "higher", 0.25},
	{"pred_recall", "ratio", "higher", 0.25},
}

var perLayer = []metricDef{
	{name: "core.period_revisit_us_p50", unit: "us", better: "lower"},
	{name: "core.period_newstate_us_p50", unit: "us", better: "lower"},
	{name: "core.period_refresh_ms_p50", unit: "ms", better: "lower"},
	{name: "core.period_ms_p95", unit: "ms", better: "lower"},
	{name: "core.collect_us", unit: "us", better: "lower"},
	{name: "core.actuate_us", unit: "us", better: "lower"},
	{name: "core.pipeline_us", unit: "us", better: "lower"},
	{name: "core.periods", unit: "count", better: "higher"},
	{name: "core.new_state_periods", unit: "count", better: "lower"},
	{name: "core.refresh_periods", unit: "count", better: "lower"},
	{name: "core.actuations", unit: "count", better: "lower"},
	{name: "core.over_budget_share", unit: "ratio", better: "lower"},
	{name: "core.import_template_ms", unit: "ms", better: "lower"},
	{name: "core.merge_template_ms", unit: "ms", better: "lower"},
	{name: "metrics.normalize_flatten_us", unit: "us", better: "lower"},
	{name: "trajectory.observe_us", unit: "us", better: "lower"},
	{name: "throttle.step_us", unit: "us", better: "lower"},
	{name: "throttle.arbiter_merge_us", unit: "us", better: "lower"},
	{name: "throttle.pauses", unit: "count", better: "lower"},
	{name: "throttle.resumes", unit: "count", better: "lower"},
	{name: "throttle.random_resumes", unit: "count", better: "lower"},
	{name: "throttle.throttled_share", unit: "ratio", better: "lower"},
	{name: "mds.reducer_observe_us", unit: "us", better: "lower"},
	{name: "mds.place_us", unit: "us", better: "lower"},
	{name: "mds.landmark_refresh_ms", unit: "ms", better: "lower"},
	{name: "mds.landmark_refresh_ms_n10k", unit: "ms", better: "lower"},
	{name: "mds.smacof_ms_n256", unit: "ms", better: "lower"},
	{name: "mds.align_ms", unit: "ms", better: "lower"},
	{name: "statespace.violation_ranges_us", unit: "us", better: "lower"},
	{name: "statespace.violation_ranges_ms_n10k", unit: "ms", better: "lower"},
	{name: "statespace.nearest_safe_us", unit: "us", better: "lower"},
	{name: "statespace.add_then_query_us", unit: "us", better: "lower"},
	{name: "statespace.set_coords_ms", unit: "ms", better: "lower"},
	{name: "statespace.apply_delta_ms", unit: "ms", better: "lower"},
	{name: "statespace.states", unit: "count", better: "lower"},
	{name: "statespace.violation_states", unit: "count", better: "lower"},
	{name: "predictor.predict_us", unit: "us", better: "lower"},
	{name: "predictor.predict_ms_n10k", unit: "ms", better: "lower"},
	{name: "predictor.candidate_hit_ratio", unit: "ratio", better: "lower"},
	{name: "predictor.tp", unit: "count", better: "higher"},
	{name: "predictor.fp", unit: "count", better: "lower"},
	{name: "predictor.fn", unit: "count", better: "lower"},
	{name: "predictor.tn", unit: "count", better: "higher"},
	{name: "predictor.lead_periods_mean", unit: "periods", better: "higher"},
	{name: "cgroup.sample_us", unit: "us", better: "lower"},
	{name: "cgroup.freeze_thaw_us", unit: "us", better: "lower"},
	{name: "resilience.ledger_record_us", unit: "us", better: "lower"},
	{name: "resilience.checkpoint_save_ms", unit: "ms", better: "lower"},
	{name: "resilience.checkpoint_load_ms", unit: "ms", better: "lower"},
	{name: "daemon.start_to_ready_ms", unit: "ms", better: "lower"},
	{name: "daemon.shutdown_ms", unit: "ms", better: "lower"},
	{name: "daemon.ticks_missed", unit: "count", better: "lower"},
	{name: "daemon.over_budget_share", unit: "ratio", better: "lower"},
	{name: "daemon.freezes_observed", unit: "count", better: "lower"},
	{name: "daemon.cpu_ms_per_period_max", unit: "ms", better: "lower"},
	{name: "registry.put_ms", unit: "ms", better: "lower"},
	{name: "registry.delta_since_us", unit: "us", better: "lower"},
	{name: "stream.hub_publish_us_s100", unit: "us", better: "lower"},
	{name: "stream.sse_encode_us", unit: "us", better: "lower"},
	{name: "fleet.delta_roundtrip_ms", unit: "ms", better: "lower"},
	{name: "sched.place_all_ms", unit: "ms", better: "lower"},
	{name: "harness.template_build_ms", unit: "ms", better: "lower"},
	{name: "harness.host_setup_ms", unit: "ms", better: "lower"},
	{name: "harness.machine_speed", unit: "ratio", better: "lower"},
	{name: "harness.rep_spread", unit: "ratio", better: "lower"},
	{name: "harness.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// lookup finds a metric of either list by name.
func lookup(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

func direction(name string) string {
	if m, ok := lookup(name); ok {
		return m.better + " is better"
	}
	return ""
}

func unitOf(name string) string {
	m, _ := lookup(name)
	return m.unit
}
