package main

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (metrics_test.go keeps the two
// in step); Moves records, for a per-layer metric, which end-to-end metric on
// which workload a change to that layer should move — and, by omission,
// where it should not.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics a user of the detector sees. Every workload
// reports each of them; see README.md for what each means per workload.
var endToEnd = []metricDef{
	{Name: "execs_per_s", Unit: "exec/s", Better: "higher"},
	{Name: "cov_bits", Unit: "bits", Better: "higher"},
	{Name: "makespan_s", Unit: "s", Better: "lower"},
	{Name: "submit_to_done_p50_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

func span(name, moves string) []metricDef {
	return []metricDef{
		{Name: "span." + name + ".share", Unit: "ratio", Better: "lower", Moves: moves},
		{Name: "span." + name + ".mean_us", Unit: "us", Better: "lower", Moves: moves},
	}
}

// perLayer are the traced pass's metrics.
var perLayer = concat(
	span("seed_pick", "execs_per_s on all"),
	span("interleaving", "execs_per_s on pclht-synth"),
	span("exec_run", "execs_per_s on all"),
	span("conflict_analysis", "execs_per_s on all"),
	span("crash_state_enum", "execs_per_s on pclht-synth and fleet (new findings only)"),
	span("validate", "makespan_s on fleet"),
	span("validate_state", "makespan_s on fleet"),
	span("queue_wait", "submit_to_done_p50_s on fleet"),
	[]metricDef{
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none: tracing cost only"},
		{Name: "exec_run.unaccounted_share", Unit: "ratio", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "search.find_all_execs", Unit: "execs", Better: "lower", Moves: "none: the search outcome itself (paper Figure 8)"},
		{Name: "search.find_all_s", Unit: "s", Better: "lower", Moves: "none: the search outcome itself (paper Figure 8)"},
		{Name: "search.found_all_share", Unit: "ratio", Better: "higher", Moves: "none: the search outcome itself"},
		{Name: "fuzz.exec_p50_us", Unit: "us", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "fuzz.exec_p99_us", Unit: "us", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "fuzz.replay_exec_us", Unit: "us", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "fuzz.mutate_us", Unit: "us", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "rt.store_clean_ns", Unit: "ns", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "rt.load_clean_ns", Unit: "ns", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "rt.store_tainted_ns", Unit: "ns", Better: "lower", Moves: "execs_per_s on pmwal-hunt; not pclht-synth"},
		{Name: "rt.sync_store_ns", Unit: "ns", Better: "lower", Moves: "execs_per_s on pclht-synth; not pmwal-hunt (no annotations)"},
		{Name: "rt.end_exec_us", Unit: "us", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "target.op_us", Unit: "us", Better: "lower", Moves: "execs_per_s on pclht-synth"},
		{Name: "target.recover_us", Unit: "us", Better: "lower", Moves: "execs_per_s on all"},
		{Name: "target.crash_recover_us", Unit: "us", Better: "lower", Moves: "execs_per_s on pmwal-hunt; not pclht-synth"},
		{Name: "pmem.restore_us", Unit: "us", Better: "lower", Moves: "execs_per_s on pclht-synth"},
		{Name: "pmem.crash_image_us", Unit: "us", Better: "lower", Moves: "execs_per_s on pmwal-hunt; not pclht-synth"},
		{Name: "pmem.crash_states_us", Unit: "us", Better: "lower", Moves: "makespan_s on fleet"},
		{Name: "sched.stats_merge_us", Unit: "us", Better: "lower", Moves: "execs_per_s on pclht-synth"},
		{Name: "sched.build_queue_us", Unit: "us", Better: "lower", Moves: "execs_per_s on pclht-synth"},
		{Name: "sched.pruned_share", Unit: "ratio", Better: "higher", Moves: "execs_per_s on pclht-synth"},
		{Name: "core.db_merge_ns", Unit: "ns", Better: "lower", Moves: "execs_per_s on pclht-synth"},
		{Name: "cover.merge_ns", Unit: "ns", Better: "lower", Moves: "execs_per_s on pclht-synth"},
		{Name: "wire.parse_ns_per_cmd", Unit: "ns", Better: "lower", Moves: "execs_per_s on pmwal-hunt only (under 1% of an exec)"},
		{Name: "wire.cmds_per_exec", Unit: "count", Better: "higher", Moves: "none: input shape"},
		{Name: "validate.state_us", Unit: "us", Better: "lower", Moves: "makespan_s on fleet"},
		{Name: "artifact.write_ms", Unit: "ms", Better: "lower", Moves: "makespan_s on fleet"},
		{Name: "artifact.bundles", Unit: "count", Better: "higher", Moves: "none: findings replayed"},
		{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Moves: "submit_to_done_p50_s on fleet"},
		{Name: "serve.get_ms", Unit: "ms", Better: "lower", Moves: "submit_to_done_p50_s on fleet"},
		{Name: "serve.queue_wait_s", Unit: "s", Better: "lower", Moves: "submit_to_done_p50_s on fleet"},
		{Name: "obs.events_dropped", Unit: "count", Better: "lower", Moves: "none: must stay 0"},
	},
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
