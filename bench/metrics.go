package main

// Workload names, in the order they run.
const (
	wSteadySerial  = "steady_serial"
	wSteadyWorkers = "steady_workers"
	wFaultsPlay    = "faults_play"
	wDist2Shard    = "dist_2shard"
	wServeJobs     = "serve_jobs"
)

var workloadNames = []string{wSteadySerial, wSteadyWorkers, wFaultsPlay, wDist2Shard, wServeJobs}

// metricDef declares one metric. BENCHMARK.json repeats the names, units,
// directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end metric may worsen before
	// -compare (and the driver) call it a regression.
	Bound float64
	// Exact marks simulated or counted values that must repeat exactly for
	// the same seed on any machine; -compare fails on any difference.
	Exact bool
	// Derived metrics relate two workloads or two passes, so only the
	// all-workload mode can compute them and BENCHMARK.json leaves them out.
	Derived bool
}

// endToEnd is what a user of sos play / sos dist / sos serve sees. An op is
// one simulated round; for serve_jobs a job's latency is spread over its
// rounds so the same names apply (see README, "serve_jobs in round units").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "node_rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_round_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "sim_bytes_per_node_round", Unit: "B", Better: "lower", Bound: 0.05, Exact: true},
}

// perLayer is printed by the traced pass. None has a bound.
var perLayer = []metricDef{
	{Name: "converge_round", Unit: "round", Better: "lower", Exact: true},

	{Name: "dsl.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.warm_round_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.seg_rps_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.seg_uo1_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.seg_uo2_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.seg_core_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.seg_ports_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.seg_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "sosf.emit_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.worker_efficiency", Unit: "ratio", Better: "higher", Derived: true},

	{Name: "sim.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "sim.alloc_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "sim.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "sim.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "meter.bytes_per_node_round.rps", Unit: "B", Better: "lower", Exact: true},
	{Name: "meter.bytes_per_node_round.uo1", Unit: "B", Better: "lower", Exact: true},
	{Name: "meter.bytes_per_node_round.uo2", Unit: "B", Better: "lower", Exact: true},
	{Name: "meter.bytes_per_node_round.core", Unit: "B", Better: "lower", Exact: true},
	{Name: "meter.bytes_per_node_round.portselect", Unit: "B", Better: "lower", Exact: true},
	{Name: "meter.bytes_per_node_round.portconnect", Unit: "B", Better: "lower", Exact: true},

	{Name: "view.merge_ns_op", Unit: "ns", Better: "lower"},
	{Name: "view.sample_ns_op", Unit: "ns", Better: "lower"},
	{Name: "core.oracle_ms", Unit: "ms", Better: "lower"},

	{Name: "scenario.action_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "scenario.action_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scenario.quiet_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.heals", Unit: "count", Better: "lower", Exact: true},

	{Name: "sosf.event_bytes_per_round", Unit: "B", Better: "lower", Exact: true},
	{Name: "sosf.jsonl_encode_us_op", Unit: "us", Better: "lower"},

	{Name: "snap.write_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "snap.restore_ms", Unit: "ms", Better: "lower"},

	{Name: "dist.handshake_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.wire_bytes_per_round", Unit: "B", Better: "lower", Exact: true},
	{Name: "dist.writes_per_round", Unit: "count", Better: "lower", Exact: true},
	{Name: "dist.coord_read_wait_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "dist.coord_write_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "dist.cpu_per_wall", Unit: "ratio", Better: "lower"},
	{Name: "dist.slowdown_x", Unit: "ratio", Better: "lower"},

	{Name: "serve.job_latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.first_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.spool_bytes_per_job", Unit: "B", Better: "lower", Exact: true},
	{Name: "serve.rounds_total", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.overhead_x", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// failedOps is stored with every result and compared exactly, but it is
// not a BENCHMARK.json metric: the driver reads it from "failed" and
// "attempted" of the result line, and a healthy run reads 0.
const failedOps = "failed_ops"
