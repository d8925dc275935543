package main

// metricDef names a metric and its unit. The two lists below are the
// same sets BENCHMARK.json declares; bench_test.go checks that.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"recover_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is one list for every workload: the traced run replays each
// workload's own inputs through every layer, so a layer the workload's
// traffic bypasses (wal on mixed-rw, psl on the MLN workloads) still
// has its numbers for that dataset. Counts that are legitimately zero
// (fallbacks, rejected requests, disk bytes without a data dir) are
// reported as zero.
var perLayer = []metricDef{
	{"rdf.parse_ms", "ms"},
	{"rdf.parse_facts_per_s", "1/s"},
	{"rulelang.parse_ms", "ms"},
	{"store.add_graph_ms", "ms"},
	{"store.bytes_per_fact", "B"},
	{"store.commit_p50_us", "us"},
	{"store.save_ms", "ms"},
	{"store.save_bytes_per_fact", "B"},
	{"store.load_ms", "ms"},
	{"wal.append_p50_us", "us"},
	{"wal.sync_p50_us", "us"},
	{"wal.sync_p99_us", "us"},
	{"wal.bytes_per_record", "B"},
	{"wal.open_replay_ms", "ms"},
	{"wal.replay_mb_per_s", "MB/s"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.disk_bytes_per_fact", "B"},
	{"ground.cold_ms", "ms"},
	{"ground.atoms", "count"},
	{"ground.clauses", "count"},
	{"ground.candidates_per_emitted", "ratio"},
	{"ground.delta_p50_us", "us"},
	{"engine.plan_build_ms", "ms"},
	{"engine.plan_sync_p50_us", "us"},
	{"engine.components", "count"},
	{"engine.patched_components_per_op", "count"},
	{"mln.cold_solve_ms", "ms"},
	{"mln.exact_components", "count"},
	{"mln.local_components", "count"},
	{"mln.fallbacks", "count"},
	{"mln.update_solve_p50_us", "us"},
	{"mln.reuse_ratio", "ratio"},
	{"psl.cold_solve_ms", "ms"},
	{"psl.update_solve_p50_ms", "ms"},
	{"psl.reuse_ratio", "ratio"},
	{"repair.cold_ms", "ms"},
	{"repair.analysis_ms", "ms"},
	{"repair.outcome_index_ms", "ms"},
	{"repair.update_p50_us", "us"},
	{"repair.outcome_patch_p50_us", "us"},
	{"repair.reuse_ratio", "ratio"},
	{"core.solve_cold_ms", "ms"},
	{"core.solve_update_p50_us", "us"},
	{"core.apply_batch_p50_us", "us"},
	{"core.open_session_ms", "ms"},
	{"core.checkpoint_ms", "ms"},
	{"core.residual_share", "ratio"},
	{"server.create_p50_ms", "ms"},
	{"server.solve_p50_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"server.response_bytes_p50", "B"},
	{"server.op_tail_ms", "ms"},
	{"server.read_tail_ms", "ms"},
	{"server.rejected_429", "count"},
	{"server.boot_recover_ms", "ms"},
	{"server.reader_lateness_p50_ms", "ms"},
	{"server.trace_overhead_pct", "%"},
}
