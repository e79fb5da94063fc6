package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change is a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// perLayer declares every per-layer metric with its unit, in the order
// the README's glossary lists them. A workload that bypasses a layer
// reports 0 for that layer's metrics. BENCHMARK.json repeats this list;
// TestBenchmarkJSON keeps the two equal.
var perLayer = []metricDef{
	// Host time by layer, per simulated network cycle.
	{Name: "trace.gen_inject_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "network.step_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "memory.step_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "network.collect_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "machine.deliver_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "pe.tick_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "bench.driver_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "network.host_ns_per_request", Unit: "ns", Better: "lower"},
	// Simulated counts of the network and memory layers.
	{Name: "network.injected", Unit: "count", Better: "higher"},
	{Name: "network.inject_refused_frac", Unit: "frac", Better: "lower"},
	{Name: "network.combines", Unit: "count", Better: "higher"},
	{Name: "network.combine_frac", Unit: "frac", Better: "higher"},
	{Name: "network.queue_len_mean", Unit: "packets", Better: "lower"},
	{Name: "memory.served", Unit: "count", Better: "higher"},
	{Name: "memory.busy_frac", Unit: "frac", Better: "lower"},
	{Name: "memory.served_skew", Unit: "ratio", Better: "lower"},
	// Observability (net-observed).
	{Name: "obs.events", Unit: "count", Better: "higher"},
	{Name: "obs.spans", Unit: "count", Better: "higher"},
	{Name: "obs.ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "obs.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "obs.export_ms", Unit: "ms", Better: "lower"},
	// Guest path (guest-*).
	{Name: "isa.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.load_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.report_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.run_calls_per_cycle", Unit: "1/cycle", Better: "lower"},
	{Name: "pe.instructions", Unit: "count", Better: "higher"},
	{Name: "pe.ipc", Unit: "1/cycle", Better: "higher"},
	{Name: "pe.stall_frac.memory", Unit: "frac", Better: "lower"},
	{Name: "pe.stall_frac.net_full", Unit: "frac", Better: "lower"},
	{Name: "pe.stall_frac.pipeline", Unit: "frac", Better: "lower"},
	{Name: "cache.hit_frac", Unit: "frac", Better: "higher"},
	// Service (serve-lifecycle), client side, per call.
	{Name: "serve.create_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.start_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.poll_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.polls", Unit: "count", Better: "lower"},
	{Name: "serve.report_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lifecycle_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sched_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "serve.config_validate_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.build_ms", Unit: "ms", Better: "lower"},
	// The modelled machine's own results — simulated time, not host
	// time. They repeat exactly for a seed; golden.json pins them.
	{Name: "sim.cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.throughput", Unit: "1/cycle", Better: "higher"},
	{Name: "sim.rt_p50_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.rt_p99_cycles", Unit: "cycles", Better: "lower"},
	// The benchmark's own figures: wall-clock time of the untraced ops
	// of the traced run (for information: it drifts with the host), the
	// yardstick's speed, and what tracing costs.
	{Name: "bench.wall_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "bench.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.op_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "bench.ref_step_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// benchmarkPath is BENCHMARK.json as seen from the working directory,
// the root of the checkout.
const benchmarkPath = "BENCHMARK.json"

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
