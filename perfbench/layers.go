package main

import "fmt"

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, with their units. A
// workload that does not run a layer reports 0 for it: the layer did no
// work there.
var perLayer = []struct{ name, unit string }{
	{"core.segment_ms", "ms"},
	{"core.prune_pass2_ms", "ms"},
	{"core.prune_ns_per_pair", "ns"},
	{"core.pruned_frac_pass2", "fraction"},
	{"core.early_exit_frac", "fraction"},
	{"core.abandon_frac", "fraction"},
	{"core.bound_batch_us", "us"},
	{"core.bound_batch_shard_us", "us"},
	{"mining.pass1_ms", "ms"},
	{"mining.pass2_ms", "ms"},
	{"mining.passk_ms", "ms"},
	{"mining.count_pass2_ms", "ms"},
	{"mining.generate_pass2_ms", "ms"},
	{"mining.generated_pass2", "count"},
	{"mining.counted_pass2", "count"},
	{"mining.frequent_pass2", "count"},
	{"mining.counted_over_bound", "fraction"},
	{"mining.alloc_mb_per_op", "MB"},
	{"dhp.bucket_pruned", "count"},
	{"dhp.trimmed_items", "count"},
	{"dhp.dropped_tx", "count"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.front_us", "us"},
	{"server.cache_hit_frac", "fraction"},
	{"shard.scatter_us", "us"},
	{"remote.rpc_us", "us"},
	{"remote.retries", "count"},
	{"shard.hedges_fired", "count"},
	{"shard.rpc_errors", "count"},
	{"wal.write_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.apply_us", "us"},
	{"wal.index_ms", "ms"},
	{"wal.compactions", "count"},
	{"wal.snapshots", "count"},
	{"wal.backlog_max", "count"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"writer_late_max_ms", "ms"},
	{"trace_overhead_frac", "fraction"},
}

// exactCounts are the per-layer metrics that depend only on the inputs,
// so runs with the same seed must report them identically. Counts read
// from a live server (hedges, retries, compactions, snapshots, backlog)
// depend on timing and are left out.
var exactCounts = []string{
	"core.pruned_frac_pass2",
	"core.early_exit_frac",
	"core.abandon_frac",
	"mining.generated_pass2",
	"mining.counted_pass2",
	"mining.frequent_pass2",
	"mining.counted_over_bound",
	"dhp.bucket_pruned",
	"dhp.trimmed_items",
	"dhp.dropped_tx",
}

// complete checks a report's metrics against the mode's list, filling a
// layer the workload does not run with 0.
func (r *report) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.name] = true
		got, ok := r.metrics[m.name]
		switch {
		case !ok && traced:
			r.set(m.name, 0, m.unit)
		case !ok:
			return fmt.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	for name := range r.metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
	}
	return nil
}
