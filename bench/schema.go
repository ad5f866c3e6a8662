package main

// The names below are the benchmark's contract: BENCHMARK.json lists the
// same workloads and metrics (bench_test.go fails when the two drift), and
// later issues cite them.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen
}

var workloadDefs = []workloadDef{
	{"convex100", "paper Fig 2 convex setup in-process, 100 devices, Parallel executor, eval every round: optim inner loop, softmax gradients and engine evaluate do all the work, no wire"},
	{"cnn10", "paper Fig 3 non-convex setup in-process, 10 devices, thinned CNN: nn/tensor GEMM and im2col dominate, so an engine or wire change must show no change here"},
	{"tcp8_f64", "TCP loopback fleet of 8 workers, wide cheap model, exact float64 codec: frame encode/decode, conn read/write and coordinator fan-out set the round time"},
	{"tcp8_topk", "same fleet, model and seed as tcp8_f64 under the topk-delta codec: 13x fewer bytes but quickselect and int8 quantisation on the reply path"},
	{"jobs3", "3 jobs on 2 slots of the durable control plane with telemetry on: scheduling, checkpoint fsync+rename, manifest rewrites and telemetry ingest are on the critical path"},
}

// endToEndDefs are what a user of the system sees. Every workload reports
// every one of them, none is ever zero (wire bytes and the failed share are
// zero on some workloads, so they live in perLayerDefs and in the result's
// attempted/failed counts instead). The timing bounds are as wide as the
// sandbox's run-to-run spread makes them: README, "bounds".
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"round_ms_p90", "ms", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"time_to_target_s", "s", "lower", 0.25},
	{"rounds_to_target", "count", "lower", 0.10},
	{"final_loss", "nats", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"allocs_per_round", "count", "lower", 0.25},
}

// perLayerDefs are reported by the traced run; the prefix is the package
// of this repo the number belongs to.
var perLayerDefs = []metricDef{
	{Name: "engine.select_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "engine.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "engine.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "engine.participants", Unit: "count", Better: "higher"},
	{Name: "engine.failed", Unit: "count", Better: "lower"},
	{Name: "engine.stragglers", Unit: "count", Better: "lower"},
	{Name: "engine.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "optim.anchor_grad_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.inner_loop_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.solve_unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "optim.grad_evals_per_round", Unit: "count", Better: "lower"},
	{Name: "models.minibatch_grad_us", Unit: "us", Better: "lower"},
	{Name: "models.full_loss_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.wire_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_sent_per_round", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_recv_per_round", Unit: "B", Better: "lower"},
	{Name: "transport.wire_size_mismatch", Unit: "count", Better: "lower"},
	{Name: "transport.compression_ratio", Unit: "x", Better: "higher"},
	{Name: "transport.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.conn_write_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.conn_read_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.write_calls_per_round", Unit: "count", Better: "lower"},
	{Name: "transport.read_calls_per_round", Unit: "count", Better: "lower"},
	{Name: "transport.codec_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "transport.rejoins", Unit: "count", Better: "lower"},
	{Name: "transport.handshake_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.round_interval_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.makespan_s", Unit: "s", Better: "lower"},
	{Name: "jobs.sched_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "jobs.open_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.stall_share_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.record_round_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.series_query_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_per_round", Unit: "count", Better: "lower"},
	{Name: "data.generate_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "simnet.d_com_ms", Unit: "ms", Better: "lower"},
	{Name: "simnet.d_cmp_ms", Unit: "ms", Better: "lower"},
	{Name: "simnet.predicted_round_ms", Unit: "ms", Better: "lower"},
	{Name: "simnet.prediction_error_pct", Unit: "%", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a leaf run prints; the keys are the driver's.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill turns raw numbers into the reported map, in the units of defs. A
// metric a workload bypasses is reported as 0, never left out.
func fill(defs []metricDef, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: raw[d.Name], Unit: d.Unit}
	}
	return out
}
