package main

// endToEnd lists the contract's end-to-end metrics, reported by every
// workload with tracing off. The workload-neutral names map onto each
// workload's own timings (see README.md):
//
//	workload    main_*         side_p50_ms
//	ingest-65k  interaction    stats
//	results-4k  results        answer
//	crowdql     crowd_query    sql
var endToEnd = []string{"setup_s", "main_p50_ms", "side_p50_ms", "rss_mb"}

// perLayer lists the per-layer metrics of the traced run.
var perLayer = []string{
	"server.task_us", "server.answer_us", "server.stats_us", "server.results_us", "server.results_encode_us",
	"server.net_us.task", "server.net_us.answer", "server.net_us.stats", "server.net_us.results", "server.net_us.cql",
	"core.assign_us", "core.eligible_tasks", "assign.fewest_us", "core.record_us", "core.view_stats_us", "core.expire_us",
	"durable.answer_us", "durable.wal_bytes_per_answer", "durable.snapshot_ms", "durable.open_ms",
	"durable.replayed_records", "durable.cql_event_us",
	"truth.frompool_ms", "truth.append_delta_us", "truth.onecoin_warm_ms", "truth.onecoin_warm_iters",
	"truth.onecoin_cold_ms", "truth.onecoin_cold_iters",
	"cql.parse_us", "cql.plan_us", "cql.exec_ms", "cql.questions_per_query", "cql.questions_estimated",
	"cql.question_gap_ms", "cql.idle_polls_per_question",
	"gen.lag_p99_ms", "obs.trace_overhead_pct",
}
