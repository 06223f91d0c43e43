package main

// The metric tables below are the program's side of BENCHMARK.json: the
// tests check that both name the same metrics with the same units, and
// that every workload emits every one of them.

// endToEnd are the metrics of an untraced run. Each applies to every
// workload, with the meaning given in BENCHMARK.json's workload notes:
// wall_s is one unit of the workload's work (a batch pass, a follow
// replay, a serve bulk lookup of a fixed request count).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). Counts and times
// of a layer the workload leaves idle read 0: those are the controls.
var perLayer = []metricDef{
	// Workload-specific user-facing numbers. They apply to one or two
	// workloads only, so they cannot carry an end-to-end bound; they come
	// from the untraced child that every traced run also makes.
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"read_samples", "count"},
	{"fresh_p50_ms", "ms"},
	{"fresh_samples", "count"},
	{"max_rps", "1/s"},
	{"disk_mb", "MB"},
	{"fail_frac", "ratio"},

	{"scanner.parse_s", "s"},
	{"scanner.append_s", "s"},
	{"scanner.append_alloc_mb", "MB"},
	{"scanner.quarantined", "count"},
	{"scanner.resident_mb", "MB"},
	{"scanner.spilled_mb", "MB"},
	{"scanner.spilled_shards", "count"},

	{"core.run_s", "s"},
	{"core.run_alloc_mb", "MB"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"core.dirty_cells", "count"},

	{"report.encode_s", "s"},

	{"wal.tick_s", "s"},
	{"wal.snapshot_s", "s"},
	{"wal.bytes", "bytes"},
	{"wal.snapshots", "count"},

	{"segment.seals", "count"},
	{"segment.sealed_mb", "MB"},
	{"segment.reads", "count"},
	{"segment.read_mb", "MB"},
	{"segment.unspills", "count"},
	{"segment.files", "count"},
	{"segment.dir_mb", "MB"},

	{"serve.build_snapshot_s", "s"},
	{"serve.publish_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.lru_hits", "count"},
	{"serve.lru_misses", "count"},
	{"serve.lru_evictions", "count"},
	{"serve.lru_purged", "count"},
	{"serve.prerendered", "count"},

	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gen.late_p99_us", "us"},

	// Self time per layer: span time minus the time of its child spans,
	// summed over the traced measured phase and divided by its units of
	// work. The write-path layers add up to trace.write_path_s, the time
	// under the benchmark's root spans; bench.self_s is its own glue
	// between calls. Requests run beside the write path and are summed
	// apart: client.self_s is client time outside the handler.
	{"bench.self_s", "s"},
	{"scanner.self_s", "s"},
	{"core.self_s", "s"},
	{"report.self_s", "s"},
	{"wal.self_s", "s"},
	{"serve.self_s", "s"},
	{"client.self_s", "s"},
	{"serve.handler_self_s", "s"},

	{"trace.write_path_s", "s"},
	{"trace.overhead_wall_s", "s"},
	{"trace.overhead_read_p50_us", "us"},
	{"trace.spans", "count"},
}

type metricDef struct {
	name string
	unit string
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
