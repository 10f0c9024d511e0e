package main

// spec declares one metric: its name, unit, and which way is better.
// BENCHMARK.json lists the same metrics (spec_test.go keeps the two in
// step).
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run reports, on every workload,
// each with a bound in BENCHMARK.json. Each workload has one unit
// operation: a gprof job (cli_report), an upload (ingest), a query
// (query_mix), or a profiled pass over the workload suite (collect).
//
// Every untraced record also carries latency_tail_ms, the percentile
// rule's tail, without a bound: on a 2-CPU host with bursts of stolen
// time, ingest's upload tail moved 20-35% between runs of the same code.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"max_rate", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not run reads 0.
var perLayer = []spec{
	{"object.read_image_s", "s", "lower"},
	{"object.read_image_mb_per_s", "MB/s", "higher"},
	{"gmon.read_s", "s", "lower"},
	{"gmon.read_mb_per_s", "MB/s", "higher"},
	{"gmon.merge_s.jobs1", "s", "lower"},
	{"gmon.merge_s.jobsN", "s", "lower"},
	{"gmon.decode_mb_per_s", "MB/s", "higher"},
	{"gmon.fold_ms", "ms", "lower"},
	{"gmon.write_s", "s", "lower"},
	{"gmon.arc_records", "count", "lower"},
	{"symtab.new_s", "s", "lower"},
	{"callgraph.build_s.jobs1", "s", "lower"},
	{"callgraph.build_s.jobsN", "s", "lower"},
	{"callgraph.nodes", "count", "lower"},
	{"callgraph.arcs", "count", "lower"},
	{"scc.analyze_s", "s", "lower"},
	{"scc.cycles", "count", "lower"},
	{"propagate.run_s.jobs1", "s", "lower"},
	{"propagate.run_s.jobsN", "s", "lower"},
	{"propagate.levels", "count", "lower"},
	{"model.build_s", "s", "lower"},
	{"report.render_s", "s", "lower"},
	{"report.render_mb_per_s", "MB/s", "higher"},
	{"report.bytes", "count", "lower"},
	{"report.render_s.flat", "s", "lower"},
	{"report.render_s.callgraph", "s", "lower"},
	{"report.render_s.json", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"serve.ingest_handler_p50_ms", "ms", "lower"},
	{"serve.ingest_handler_p99_ms", "ms", "lower"},
	{"serve.fold_p50_ms", "ms", "lower"},
	{"serve.fold_p99_ms", "ms", "lower"},
	{"serve.queue_depth_p99", "count", "lower"},
	{"serve.backpressure_ratio", "ratio", "lower"},
	{"serve.query_handler_p50_ms.flat", "ms", "lower"},
	{"serve.query_handler_p50_ms.callgraph", "ms", "lower"},
	{"serve.query_handler_p50_ms.profile", "ms", "lower"},
	{"serve.query_handler_p50_ms.folded", "ms", "lower"},
	{"serve.snapshot_cache_hit_ratio", "ratio", "higher"},
	{"serve.analysis_cache_hit_ratio", "ratio", "higher"},
	{"serve.coalesced_ratio", "ratio", "higher"},
	{"workloads.build_s", "s", "lower"},
	{"vm.ns_per_instr", "ns", "lower"},
	{"vm.sim_cycles", "count", "lower"},
	{"mon.overhead_pct", "%", "lower"},
	{"mon.mcount_calls", "count", "lower"},
	{"mon.cache_hit_rate", "ratio", "higher"},
	{"client.ingest_p50_ms", "ms", "lower"},
	{"client.ingest_p99_ms", "ms", "lower"},
	{"client.lateness_p99_ms", "ms", "lower"},
	{"client.ladder_max_rate", "1/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.coverage", "ratio", "higher"},
}
