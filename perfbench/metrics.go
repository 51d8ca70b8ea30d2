package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names with their units, directions and, for end-to-end metrics, the
// regression bound; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// Per-layer metrics only: the repo module the metric prices, and
	// the end-to-end metric and workload a change to it should move. An
	// empty moves is explained by note.
	layer, moves, on, note string
}

// endToEnd is what a user of the service sees, measured untraced.
var endToEnd = []metricDef{
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "frames_per_s", unit: "frames/s", better: "higher"},
	{name: "mem_peak_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is reported by a traced run. The _us and _allocs metrics
// are ladder rungs: one frame pushed through one layer's public call
// on one goroutine, per frame, as self time (the rung minus the rungs
// it contains). The _ms and _pct metrics are read under the workload's
// own load from the Server-Timing trees the daemons return.
var perLayer = []metricDef{
	{name: "imageio.decode_us", unit: "us", better: "lower", layer: "imageio", moves: "latency_p50_ms", on: "small-open"},
	{name: "imageio.decode_allocs", unit: "count", better: "lower", layer: "imageio", moves: "latency_p50_ms", on: "small-open"},
	{name: "hostcc.label_us", unit: "us", better: "lower", layer: "hostcc", moves: "frames_per_s", on: "large-host"},
	{name: "hostcc.runs", unit: "count", better: "lower", layer: "hostcc", on: "large-host", note: "input property: vertical runs per frame"},
	{name: "core.label_us", unit: "us", better: "lower", layer: "core", moves: "frames_per_s", on: "sim-strips"},
	{name: "core.label_allocs", unit: "count", better: "lower", layer: "core", moves: "frames_per_s", on: "sim-strips"},
	{name: "core.pool_us", unit: "us", better: "lower", layer: "core", moves: "latency_tail_ms", on: "small-open"},
	{name: "slap.steps", unit: "steps", better: "lower", layer: "core", on: "sim-strips", note: "paper contract: simulated makespan, must not change"},
	{name: "unionfind.ops", unit: "ops", better: "lower", layer: "core", on: "sim-strips", note: "paper contract: simulated finds + unions, must not change"},
	{name: "api.encode_us", unit: "us", better: "lower", layer: "api", moves: "latency_p50_ms", on: "cluster-labels"},
	{name: "api.response_bytes", unit: "bytes", better: "lower", layer: "api", moves: "frames_per_s", on: "cluster-labels"},
	{name: "api.decode_us", unit: "us", better: "lower", layer: "api", moves: "frames_per_s", on: "cluster-labels"},
	{name: "server.handler_us", unit: "us", better: "lower", layer: "server", moves: "latency_p50_ms", on: "small-open"},
	{name: "server.handler_allocs", unit: "count", better: "lower", layer: "server", moves: "latency_p50_ms", on: "small-open"},
	{name: "client.roundtrip_us", unit: "us", better: "lower", layer: "client", moves: "latency_p50_ms", on: "small-open"},
	{name: "cluster.overhead_us", unit: "us", better: "lower", layer: "cluster", moves: "frames_per_s", on: "cluster-labels"},
	{name: "server.queue_wait_p99_ms", unit: "ms", better: "lower", layer: "server", moves: "latency_tail_ms", on: "small-open"},
	{name: "core.pool_wait_p99_ms", unit: "ms", better: "lower", layer: "core", moves: "latency_tail_ms", on: "small-open"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", layer: "loadgen", moves: "latency_tail_ms", on: "small-open"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "loadgen", on: "small-open", note: "cost of client tracing; end-to-end metrics are measured untraced"},
}
