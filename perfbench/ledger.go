package main

// layerMetric is one per-layer number of the traced run, with the
// end-to-end metric it should move and the workload it should move it
// on. Names and units match the per_layer list of BENCHMARK.json.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

// selfModules are the modules whose CPU self time is reported by name;
// every other bucket of the profile fold is summed into other.self_s.
var selfModules = []string{"warp", "sm", "simt", "isa", "core", "mem", "event", "gpu", "cta", "harness", "resultstore", "runtime", "stdlib"}

const (
	onSingle = "vt-target, baseline-control"
	onAll    = "both"
	// probeOnly marks the metrics of the traced run's sweep probe: cold
	// sweeps, a filling sweep into a fresh store and re-reads of it, all
	// off the timed path.
	probeOnly = "none (sweep probe, off the timed path)"
	onProbe   = "both (sweep probe)"
)

var ledger = []layerMetric{
	{"profile.total_s", "s", "lower", "wall_s", onAll},
	{"warp.self_s", "s", "lower", "sim_instrs_per_s", onSingle},
	{"sm.self_s", "s", "lower", "sim_instrs_per_s", onSingle},
	{"simt.self_s", "s", "lower", "sim_instrs_per_s", onSingle},
	{"isa.self_s", "s", "lower", "sim_instrs_per_s", onSingle},
	{"warp.ns_per_instr", "ns", "lower", "sim_instrs_per_s", onSingle},
	{"sm.ns_per_instr", "ns", "lower", "sim_instrs_per_s", onSingle},
	{"core.self_s", "s", "lower", "sim_instrs_per_s", "vt-target only"},
	{"core.us_per_swap", "us", "lower", "sim_instrs_per_s", "vt-target only"},
	{"core.swaps_out", "count", "lower", "sim_instrs_per_s", "vt-target only"},
	{"core.swap_stall_cycles", "cycles", "lower", "sim_instrs_per_s", "vt-target only"},
	{"mem.self_s", "s", "lower", "sim_instrs_per_s", "mostly baseline-control"},
	{"event.self_s", "s", "lower", "sim_instrs_per_s", "mostly baseline-control"},
	{"mem.ns_per_l1_access", "ns", "lower", "sim_instrs_per_s", "mostly baseline-control"},
	{"mem.l1_accesses", "count", "lower", "sim_instrs_per_s", "mostly baseline-control"},
	{"mem.l1_hits", "count", "higher", "sim_instrs_per_s", "mostly baseline-control"},
	{"mem.l2_accesses", "count", "lower", "sim_instrs_per_s", "mostly baseline-control"},
	{"mem.dram_reads", "count", "lower", "sim_instrs_per_s", "mostly baseline-control"},
	{"gpu.self_s", "s", "lower", "sim_instrs_per_s, max_rss_mb", onSingle},
	{"cta.self_s", "s", "lower", "sim_instrs_per_s", onSingle},
	{"runtime.self_s", "s", "lower", "sim_instrs_per_s, max_rss_mb", onSingle},
	{"gpu.engine_workers", "count", "lower", "sim_instrs_per_s, max_rss_mb", onSingle + " (sweeps pin the sequential engine)"},
	{"harness.self_s", "s", "lower", probeOnly, onProbe + ", per cold pass"},
	{"harness.plan_s", "s", "lower", probeOnly, onProbe + ", per cold pass"},
	{"harness.fork_s", "s", "lower", probeOnly, onProbe + ", checkpoint loads and stores of the filling sweep"},
	{"harness.execute_s", "s", "lower", probeOnly, onProbe + ", per cold pass"},
	{"harness.fork_hit_ratio", "ratio", "higher", probeOnly, onProbe + ", cold passes"},
	{"harness.prefix_cycles_saved", "cycles", "higher", probeOnly, onProbe + ", per cold pass"},
	{"resultstore.self_s", "s", "lower", probeOnly, onProbe + ", per re-read pass"},
	{"resultstore.tx_s", "s", "lower", probeOnly, onProbe + ", the filling sweep"},
	{"resultstore.ms_per_tx", "ms", "lower", probeOnly, onProbe + ", the filling sweep"},
	{"resultstore.bytes", "bytes", "lower", probeOnly, onProbe + ", the filled store"},
	{"resultstore.get_s", "s", "lower", probeOnly, onProbe + ", per re-read pass"},
	{"resultstore.us_per_get", "us", "lower", probeOnly, onProbe + ", re-reads"},
	{"resultstore.hit_ratio", "ratio", "higher", probeOnly, onProbe + ", re-reads"},
	{"stdlib.self_s", "s", "lower", "sim_instrs_per_s", onSingle},
	{"harness.job_ms_p50", "ms", "lower", probeOnly, onProbe + ", cold passes"},
	{"harness.job_ms_p99", "ms", "lower", probeOnly, onProbe + ", cold passes"},
	{"harness.job_samples", "count", "higher", "none (sample count of the job percentiles)", onProbe},
	{"other.self_s", "s", "lower", "none (the benchmark itself, the vtsim facade, unsymbolized frames)", onAll},
	{"sm.issued", "count", "lower", "none (exact work count)", onAll},
	{"sm.slot_stall_mem", "count", "lower", "none (exact work count)", onAll},
	{"sm.slot_idle", "count", "lower", "none (exact work count)", onAll},
	{"gpu.sim_cycles", "cycles", "lower", "none (exact work count)", onAll},
	{"harness.requests", "count", "lower", "none (exact work count)", onProbe + ", per cold pass"},
	{"harness.executed", "count", "lower", "none (exact work count)", onProbe + ", per cold pass"},
	{"harness.cache_hits", "count", "higher", "none (exact work count)", onProbe + ", per cold pass"},
	{"resultstore.hits", "count", "higher", probeOnly, onProbe + ", per re-read pass"},
	{"resultstore.misses", "count", "lower", probeOnly, onProbe + ", per re-read pass"},
	{"resultstore.retries", "count", "lower", probeOnly, onProbe + ", per re-read pass"},
	{"harness.workers", "count", "higher", "none (environment stamp)", onProbe},
	{"harness.dilute", "count", "lower", "none (environment stamp)", onProbe},
	{"env.nproc", "count", "higher", "none (environment stamp)", onAll},
	{"env.gomaxprocs", "count", "higher", "none (environment stamp)", onAll},
	{"trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", onAll},
}
