package main

import "strings"

// metricSpec is one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json fixes for them; per-layer metrics have
// none.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload. An "op" is the workload's unit of work: one Build on
// build_50k, one route, broadcast or churn request on the serving
// workloads, its latency taken from the op's due time. Times are divided
// by the host factor (hostref.go). The bounds are set by measured
// run-to-run spread on a 2-vCPU host (README.md, "Bounds"): across ten
// runs of identical code the times spread up to 13% (set-up 18%) and
// memory up to 6%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics. Time metrics are the median per
// call of the span of the same name without its unit suffix, recorded
// around one call into that layer's public function.
var perLayer = []metricSpec{
	{name: "graph.flatten_ms", unit: "ms", better: "lower"},
	{name: "graph.msbfs64_ms", unit: "ms", better: "lower"},
	{name: "graph.locality_order_ms", unit: "ms", better: "lower"},
	{name: "graph.bfs_ms", unit: "ms", better: "lower"},
	{name: "cluster.election_ms", unit: "ms", better: "lower"},
	{name: "cluster.heads", unit: "count", better: "lower"},
	{name: "ncr.select_ms", unit: "ms", better: "lower"},
	{name: "ncr.pairs", unit: "count", better: "lower"},
	{name: "gateway.select_ms", unit: "ms", better: "lower"},
	{name: "gateway.links", unit: "count", better: "lower"},
	{name: "gateway.cds_size", unit: "count", better: "lower"},
	{name: "engine.build_ms", unit: "ms", better: "lower"},
	{name: "engine.build_self_ms", unit: "ms", better: "lower"},
	{name: "engine.verify_ms", unit: "ms", better: "lower"},
	{name: "engine.apply_ms", unit: "ms", better: "lower"},
	{name: "engine.current_graph_ms", unit: "ms", better: "lower"},
	{name: "engine.gateway_runs", unit: "count", better: "lower"},
	{name: "engine.gateway_saved", unit: "count", better: "higher"},
	{name: "routing.route_us", unit: "us", better: "lower"},
	{name: "routing.route_hops", unit: "count", better: "lower"},
	{name: "routing.new_router_ms", unit: "ms", better: "lower"},
	{name: "broadcast.new_plan_ms", unit: "ms", better: "lower"},
	{name: "broadcast.run_us", unit: "us", better: "lower"},
	{name: "broadcast.forwarders", unit: "count", better: "lower"},
	{name: "codec.encode_ms", unit: "ms", better: "lower"},
	{name: "codec.snapshot_bytes", unit: "bytes", better: "lower"},
	{name: "codec.decode_ms", unit: "ms", better: "lower"},
	{name: "codec.events_encode_us", unit: "us", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.fsync_ms", unit: "ms", better: "lower"},
	{name: "wal.syncs_per_append", unit: "ratio", better: "lower"},
	{name: "wal.open_ms", unit: "ms", better: "lower"},
	{name: "server.route_handler_us", unit: "us", better: "lower"},
	{name: "server.broadcast_handler_us", unit: "us", better: "lower"},
	{name: "server.events_handler_ms", unit: "ms", better: "lower"},
	{name: "server.create_ms", unit: "ms", better: "lower"},
	{name: "khopd.route_p50_ms", unit: "ms", better: "lower"},
	{name: "khopd.route_p99_ms", unit: "ms", better: "lower"},
	{name: "khopd.apply_p50_ms", unit: "ms", better: "lower"},
	{name: "khopd.wal_fsync_p50_ms", unit: "ms", better: "lower"},
	{name: "khopd.gateway_runs", unit: "count", better: "lower"},
	{name: "khopd.gateway_saved", unit: "count", better: "higher"},
	{name: "khopd.recovery_s", unit: "s", better: "lower"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.sent_ops", unit: "count", better: "higher"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "host.ref_ms", unit: "ms", better: "lower"},
	{name: "op.samples", unit: "count", better: "higher"},
	{name: "op.tail_pct", unit: "%", better: "higher"},
	{name: "op.error_rate", unit: "ratio", better: "lower"},
	{name: "op.route_p50_ms", unit: "ms", better: "lower"},
	{name: "op.route_p99_ms", unit: "ms", better: "lower"},
	{name: "op.broadcast_p50_ms", unit: "ms", better: "lower"},
	{name: "op.broadcast_p90_ms", unit: "ms", better: "lower"},
	{name: "op.churn_p50_ms", unit: "ms", better: "lower"},
	{name: "op.churn_p90_ms", unit: "ms", better: "lower"},
	{name: "op.build_p50_s", unit: "s", better: "lower"},
	{name: "op.build_p90_s", unit: "s", better: "lower"},
	{name: "op.read_ops_per_s", unit: "1/s", better: "higher"},
	{name: "op.churn_events_per_s", unit: "1/s", better: "higher"},
}

// spanName is the span a per-layer time metric is the median of, and
// the factor that converts nanoseconds to the metric's unit; ok is
// false for metrics that are not span medians.
func spanName(m metricSpec) (span string, perNS float64, ok bool) {
	switch {
	case m.unit == "ms" && strings.HasSuffix(m.name, "_ms"):
		return strings.TrimSuffix(m.name, "_ms"), 1e-6, true
	case m.unit == "us" && strings.HasSuffix(m.name, "_us"):
		return strings.TrimSuffix(m.name, "_us"), 1e-3, true
	}
	return "", 0, false
}
