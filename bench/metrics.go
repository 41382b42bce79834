package main

// spec declares one reported metric. BENCHMARK.json at the repository root
// carries the same names, units, directions and bounds (bench_test.go checks
// that it does).
type spec struct {
	name   string
	unit   string
	higher bool    // true when a higher value is better
	bound  float64 // end-to-end only: share of the parent's median by which it may worsen
}

// runSeconds is -seconds' default and BENCHMARK.json's run_seconds.
const runSeconds = 15

// endToEnd are the metrics a user of the service sees. Every workload reports
// all of them, from an untraced run.
var endToEnd = []spec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", higher: true, bound: 0.20},
	{name: "fresh_p50_ms", unit: "ms", bound: 0.24},
	{name: "replay_p50_ms", unit: "ms", bound: 0.24},
	{name: "restart_s", unit: "s", bound: 0.24},
	{name: "rel_err_p50", unit: "ratio", bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
}

// perLayer are the metrics of single layers, from a traced run. They carry no
// bound. A layer a workload never enters reports 0.
var perLayer = []spec{
	{name: "sql.parse_us", unit: "us"},
	{name: "plan.build_us", unit: "us"},
	{name: "mech.choose_us", unit: "us"},
	{name: "r2t.explain_us", unit: "us"},
	{name: "exec.core_ms", unit: "ms"},
	{name: "exec.result_ms", unit: "ms"},
	{name: "exec.rows_probed_per_emitted", unit: "ratio"},
	{name: "exec.arena_mb", unit: "MB"},
	{name: "exec.core_cache_hit_ratio", unit: "ratio", higher: true},
	{name: "exec.core_cache_stale", unit: "count"},
	{name: "exec.index_hit_ratio", unit: "ratio", higher: true},
	{name: "exec.index_extensions", unit: "count", higher: true},
	{name: "exec.index_rebuilds", unit: "count"},
	{name: "truncation.build_ms", unit: "ms"},
	{name: "truncation.partition_share", unit: "ratio", higher: true},
	{name: "core.run_ms", unit: "ms"},
	{name: "core.races_per_release", unit: "count"},
	{name: "core.early_stop_prunes", unit: "count", higher: true},
	{name: "lp.solve_ms", unit: "ms"},
	{name: "lp.simplex_iters", unit: "count"},
	{name: "lp.grid_redundant_skips", unit: "count", higher: true},
	{name: "dp.noise_us", unit: "us"},
	{name: "server.decode_us", unit: "us"},
	{name: "server.encode_us", unit: "us"},
	{name: "server.admission_us", unit: "us"},
	{name: "server.http_floor_us", unit: "us"},
	{name: "server.ledger_append_us", unit: "us"},
	{name: "server.ledger_bytes_per_charge", unit: "B"},
	{name: "server.ledger_replay_ms", unit: "ms"},
	{name: "server.answer_cache_hit_ratio", unit: "ratio", higher: true},
	{name: "server.rejected_429", unit: "count"},
	{name: "server.reject_p50_us", unit: "us"},
	{name: "server.fresh_p99_ms", unit: "ms"},
	{name: "server.replay_p99_ms", unit: "ms"},
	{name: "server.append_p50_ms", unit: "ms"},
	{name: "server.append_p99_ms", unit: "ms"},
	{name: "storage.csv_load_ms", unit: "ms"},
	{name: "segstore.replay_ms", unit: "ms"},
	{name: "segstore.insert_us", unit: "us"},
	{name: "segstore.wal_bytes_per_row_byte", unit: "ratio"},
	{name: "segstore.fsyncs_per_append", unit: "ratio"},
	{name: "segstore.fsync_s", unit: "s"},
	{name: "repl.ack_ms", unit: "ms"},
	{name: "repl.lag_records_max", unit: "count"},
	{name: "repl.disconnects", unit: "count"},
	{name: "shard.scatter_ms", unit: "ms"},
	{name: "shard.partials_ms", unit: "ms"},
	{name: "shard.merge_us", unit: "us"},
	{name: "shard.reply_bytes", unit: "B"},
	{name: "shard.hedges", unit: "count"},
	{name: "shard.call_failures", unit: "count"},
	{name: "shard.conn_reuse_ratio", unit: "ratio", higher: true},
	{name: "shard.row_skew", unit: "ratio"},
	{name: "proc.cpu_s", unit: "s"},
	{name: "proc.sys_share", unit: "ratio"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.alloc_mb_per_req", unit: "MB"},
	{name: "trace.coverage", unit: "ratio", higher: true},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.walked_requests", unit: "count", higher: true},
}

func specByName(name string) (spec, bool) {
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if s.name == name {
				return s, true
			}
		}
	}
	return spec{}, false
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}
