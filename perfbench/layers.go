package main

// layerMetric is one per-layer metric of the traced run and the
// end-to-end metric it should move, on which workloads — written down
// before any change is measured, so a change's trace can be held to the
// prediction. The traced run reports exactly these metrics, and
// BENCHMARK.json's per_layer list names the same ones.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"rng.float64_ns", "ns", "lower", "trials_per_s on fig5-synthetic and wide-crn (one draw per jump-chain event)"},
	{"rng.reseed_ns", "ns", "lower", "trials_per_s on toggle-fleet (paid per trial, and its trials are short)"},
	{"chem.fire_refresh_ns", "ns", "lower", "trials_per_s on fig5-synthetic and wide-crn"},
	{"chem.select_ns", "ns", "lower", "trials_per_s on fig5-synthetic (SelectChannel) and wide-crn (SelectBlock)"},
	{"chem.propensities_ns", "ns", "lower", "trials_per_s on fig5-synthetic and toggle-fleet (full recompute at every Reset)"},
	{"chem.parse_us", "us", "lower", "trials_per_s on toggle-fleet (paid per shard) and setup_s"},
	{"chem.compile_us", "us", "lower", "trials_per_s on toggle-fleet (paid per shard and grid point) and setup_s"},
	{"sim.ns_per_event", "ns", "lower", "trials_per_s on fig5-synthetic and wide-crn"},
	{"sim.reset_ns", "ns", "lower", "trials_per_s on toggle-fleet"},
	{"sim.events_per_trial", "count", "lower", "nothing: an exact count; if it moves, the trial stream changed"},
	{"mc.trials_per_s_1w", "1/s", "higher", "trials_per_s on fig5-synthetic and wide-crn"},
	{"mc.scaling_eff", "ratio", "higher", "trials_per_s on fig5-synthetic and wide-crn"},
	{"mc.resolved_ratio", "ratio", "higher", "trials_per_s on fig5-synthetic and wide-crn (unresolved trials run to the step bound)"},
	{"mc.alloc_bytes_per_trial", "B", "lower", "trials_per_s and peak_rss_mb on every workload"},
	{"lambda.model_build_ms", "ms", "lower", "trials_per_s on fig5-synthetic (rebuilt per shard and grid point); 0 where lambda is off the path"},
	{"shard.rt_ms.p50", "ms", "lower", "trials_per_s on toggle-fleet; fig5-synthetic and wide-crn unchanged"},
	{"shard.rt_ms.p99", "ms", "lower", "trials_per_s and failed_ratio on toggle-fleet; the tail under the 10-samples-beyond rule"},
	{"shard.rt_ms.tail_pct", "%", "higher", "nothing: the percentile shard.rt_ms.p99 actually is"},
	{"shard.rt.n", "count", "higher", "nothing: the round trips behind the shard.rt percentiles"},
	{"shard.run_ms.p50", "ms", "lower", "trials_per_s on toggle-fleet; fig5-synthetic and wide-crn through their few large shards"},
	{"shard.validate_us", "us", "lower", "trials_per_s on toggle-fleet"},
	{"shard.encode_us", "us", "lower", "trials_per_s on toggle-fleet"},
	{"shard.decode_us", "us", "lower", "trials_per_s on toggle-fleet"},
	{"shard.result_bytes", "B", "lower", "trials_per_s on toggle-fleet"},
	{"shard.merge_us", "us", "lower", "trials_per_s on toggle-fleet"},
	{"shard.journal_append_ms.p50", "ms", "lower", "trials_per_s on toggle-fleet"},
	{"shard.journal_append_ms.p99", "ms", "lower", "trials_per_s and failed_ratio on toggle-fleet"},
	{"shard.journal_append_ms.tail_pct", "%", "higher", "nothing: the percentile shard.journal_append_ms.p99 actually is"},
	{"shard.journal_append.n", "count", "higher", "nothing: the appends behind the journal percentiles"},
	{"shard.dispatches", "count/sweep", "lower", "trials_per_s on toggle-fleet"},
	{"shard.retries", "count/sweep", "lower", "trials_per_s and failed_ratio on toggle-fleet"},
	{"sweep.self_ms", "ms", "lower", "trials_per_s on toggle-fleet"},
	{"failed_ratio", "ratio", "lower", "the run's failed/attempted dispatches; 0 on the current code"},
	{"trace.overhead", "ratio", "higher", "nothing: traced ÷ untraced trials_per_s of the same sweeps"},
}
