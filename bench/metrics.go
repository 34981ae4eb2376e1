package main

// metricDef declares one metric. BENCHMARK.json repeats these lists;
// the package test checks that the two agree.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	bound float64
	// pick is the quantile of a run's repetitions that is reported for
	// an end-to-end metric. Host interference only ever makes a
	// repetition slower, so speeds and costs report their better
	// quartile, which a disturbance covering half a run cannot move
	// (README, Bounds); the rest report the median.
	pick float64
}

// endToEndMetrics are reported by every workload on an untraced run.
// README.md says what each one times on each workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.5},
	{"served_pps", "1/s", "higher", 0.2, 0.75},
	{"latency_p50_us", "us", "lower", 0.2, 0.25},
	{"latency_p90_us", "us", "lower", 0.25, 0.25},
	{"delivered_frac", "ratio", "higher", 0.001, 0.5},
	{"cpu_s_per_mpkt", "s", "lower", 0.2, 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2, 0.5},
	{"modeled_cycles_per_pkt", "cycles", "lower", 0.05, 0.5},
}

// perLayer are reported by every workload on a traced run. Values of
// the leaf layers and the ladder come from the ladder script, which
// every traced run replays; scheduler.*, engine.* and wfqd.* come from
// the workload's own traced repetitions and read 0 on a workload that
// leaves the layer idle.
var perLayer = []metricDef{
	{name: "traffic.gen_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "wfq.tag_ns", unit: "ns", better: "lower"},
	{name: "rank.rank_ns", unit: "ns", better: "lower"},
	{name: "rank.hwstore_pair_ns", unit: "ns", better: "lower"},
	{name: "scheduler.pkt_ns", unit: "ns", better: "lower"},
	{name: "scheduler.windows_per_pkt", unit: "count", better: "lower"},
	{name: "scheduler.sections_reclaimed", unit: "count", better: "lower"},
	{name: "scheduler.peak_buffer", unit: "count", better: "lower"},
	{name: "scheduler.inversions_per_kpkt", unit: "count", better: "lower"},
	{name: "matcher.closest_ns", unit: "ns", better: "lower"},
	{name: "trie.insert_ns", unit: "ns", better: "lower"},
	{name: "trie.search_ns", unit: "ns", better: "lower"},
	{name: "trie.delete_ns", unit: "ns", better: "lower"},
	{name: "trie.node_reads_per_search", unit: "count", better: "lower"},
	{name: "transtable.access_ns", unit: "ns", better: "lower"},
	{name: "taglist.window_ns", unit: "ns", better: "lower"},
	{name: "taglist.accesses_per_window", unit: "count", better: "lower"},
	{name: "membus.access_ns", unit: "ns", better: "lower"},
	{name: "membus.taglist_stall_frac", unit: "ratio", better: "lower"},
	{name: "membus.taglist_conflicts_per_kop", unit: "count", better: "lower"},
	{name: "membus.window_cycles_worst", unit: "cycles", better: "lower"},
	{name: "core.insert_ns", unit: "ns", better: "lower"},
	{name: "core.extract_ns", unit: "ns", better: "lower"},
	{name: "core.combined_ns", unit: "ns", better: "lower"},
	{name: "core.remove_ns", unit: "ns", better: "lower"},
	{name: "core.tree_reads_per_op", unit: "count", better: "lower"},
	{name: "core.table_accesses_per_op", unit: "count", better: "lower"},
	{name: "core.list_accesses_per_op", unit: "count", better: "lower"},
	{name: "core.tree_max_depth", unit: "count", better: "lower"},
	{name: "core.worst_op_accesses", unit: "count", better: "lower"},
	{name: "sharded.pair_ns", unit: "ns", better: "lower"},
	{name: "sharded.model_speedup", unit: "ratio", better: "higher"},
	{name: "sharded.lane_insert_imbalance", unit: "ratio", better: "lower"},
	{name: "sharded.peak_occupancy_imbalance", unit: "ratio", better: "lower"},
	{name: "pqueue.tree_pair_ns", unit: "ns", better: "lower"},
	{name: "pqueue.sharded_pair_ns", unit: "ns", better: "lower"},
	{name: "pqueue.mean_insert_accesses", unit: "count", better: "lower"},
	{name: "pqueue.mean_extract_accesses", unit: "count", better: "lower"},
	{name: "pqueue.mean_remove_accesses", unit: "count", better: "lower"},
	{name: "ring.pushpop_ns", unit: "ns", better: "lower"},
	{name: "engine.submit_ns_p50", unit: "ns", better: "lower"},
	{name: "engine.submit_ns_p99", unit: "ns", better: "lower"},
	{name: "engine.control_ns_p50", unit: "ns", better: "lower"},
	{name: "engine.transit_us_p50", unit: "us", better: "lower"},
	{name: "engine.transit_us_p99", unit: "us", better: "lower"},
	{name: "engine.latency_p99_us", unit: "us", better: "lower"},
	{name: "engine.latency_p999_us", unit: "us", better: "lower"},
	{name: "engine.gen_late_us_max", unit: "us", better: "lower"},
	{name: "engine.avg_batch", unit: "count", better: "higher"},
	{name: "engine.idles_per_kpkt", unit: "count", better: "lower"},
	{name: "engine.merge_forced_per_kpkt", unit: "count", better: "lower"},
	{name: "engine.ring_occupancy_mean", unit: "count", better: "lower"},
	{name: "engine.sorter_len_mean", unit: "count", better: "lower"},
	{name: "engine.served_occupied_mean", unit: "count", better: "lower"},
	{name: "engine.model_speedup", unit: "ratio", better: "higher"},
	{name: "engine.cancel_hit_frac", unit: "ratio", better: "higher"},
	{name: "engine.cancel_drop_frac", unit: "ratio", better: "lower"},
	{name: "wfqd.ack_us_p50", unit: "us", better: "lower"},
	{name: "wfqd.ack_us_p99", unit: "us", better: "lower"},
	{name: "wfqd.write_ns_per_line", unit: "ns", better: "lower"},
	{name: "wfqd.engine_p99_us", unit: "us", better: "lower"},
	{name: "wfqd.server_cpu_util", unit: "ratio", better: "lower"},
	{name: "wfqd.startup_ms", unit: "ms", better: "lower"},
	{name: "wfqd.drain_ms", unit: "ms", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "proc.cpu_util", unit: "ratio", better: "lower"},
	{name: "proc.allocs_per_kpkt", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "ladder.core_ns", unit: "ns", better: "lower"},
	{name: "ladder.sharded_self_ns", unit: "ns", better: "lower"},
	{name: "ladder.pqueue_self_ns", unit: "ns", better: "lower"},
	{name: "ladder.rank_self_ns", unit: "ns", better: "lower"},
	{name: "ladder.engine_self_ns", unit: "ns", better: "lower"},
	{name: "ladder.wfqd_self_ns", unit: "ns", better: "lower"},
}
