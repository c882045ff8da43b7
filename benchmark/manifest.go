package main

import (
	"encoding/json"
)

// metricDef declares one metric. The tables below are the single source of
// BENCHMARK.json (the smoke test checks the copy at the repository root against
// manifestJSON) and of the bounds -compare applies.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics that carry a regression bound in BENCHMARK.json.
// The driver needs each of them from each of the four workloads, never 0, with
// a quartile spread over ten runs inside its bound, which is at most 0.25. On
// the reference box no timing meets that on all four workloads (README.md,
// "Clocks" and "Bounds"), so by the issue's own rule the timings are reported
// only, and what is bounded is the set-up time the driver requires and the one
// cost that repeats from run to run: the heap the whole process allocates per
// operation of the workload's closed-loop generator (a db.Apply call, a read,
// a POST /apply).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"alloc_kib_per_op", "KiB", lower, 0.25},
}

// reportedOnly are the issue's other end-to-end metrics, on the wall clock,
// and the CPU-clock figures of the in-process workloads under names of their
// own. Each exists on some workloads only, or swings with the box's
// neighbours by more than any bound the driver allows. They are measured in
// the untraced pass like the ones above and reach the driver in the per-layer
// list, where nothing is enforced; reportedBounds holds the bounds -compare
// applies.
var reportedOnly = []metricDef{
	{"heap_live_mb", "MiB", lower, 0},
	{"ingest_tuples_per_s", "tuples/s", higher, 0},
	{"batch_p50_ms", "ms", lower, 0},
	{"batch_p99_ms", "ms", lower, 0},
	{"wal_bytes_per_tuple", "bytes", lower, 0},
	{"recovery_s", "s", lower, 0},
	{"read_ops_per_s", "1/s", higher, 0},
	{"lookup_p50_us", "us", lower, 0},
	{"lookup_p99_us", "us", lower, 0},
	{"scan_p50_us", "us", lower, 0},
	{"follower_staleness_p50_ms", "ms", lower, 0},
	{"follower_staleness_p99_ms", "ms", lower, 0},
	{"ingest_cpu_tuples_per_s", "tuples/s", higher, 0},
	{"batch_cpu_p50_ms", "ms", lower, 0},
	{"batch_cpu_p99_ms", "ms", lower, 0},
	{"setup_wall_s", "s", lower, 0},
}

// reportedBounds are the bounds -compare applies to reported-only metrics,
// per workload. The rule (README.md, "Bounds"): the issue's bound for the
// metric, kept where the two run-sets of every pair made on the reference box
// each spread less than it and differed by less than half of it; a metric ×
// workload pair that does not meet the rule has no entry and is printed
// without a verdict. Only the byte counts meet it.
var reportedBounds = map[string]map[string]float64{
	"wal_bytes_per_tuple": {"multiview-durable": 0.02, "serve-read-heavy": 0.02, "serve-write-heavy": 0.02},
}

// layerMetrics are the traced pass's, by layer (module name).
var layerMetrics = []metricDef{
	{"data.delta_build_ns_per_tuple", "ns", lower, 0},
	{"data.batch_distinct_ratio", "ratio", lower, 0},
	{"data.snapshot_dirty_keys_per_batch", "count", lower, 0},
	{"ring.lift_calls_per_tuple", "count", lower, 0},
	{"ring.cofactor_add_ns", "ns", lower, 0},
	{"ring.cofactor_mul_ns", "ns", lower, 0},
	{"ivm.apply_ns_per_tuple", "ns", lower, 0},
	{"ivm.publish_ns_per_batch", "ns", lower, 0},
	{"ivm.views_materialized", "count", lower, 0},
	{"ivm.state_bytes_per_tuple", "bytes", lower, 0},
	{"ivm.share_of_apply", "ratio", lower, 0},
	{"plan.create_view_ms", "ms", lower, 0},
	{"db.apply_self_ns_per_tuple", "ns", lower, 0},
	{"db.stats_ns_per_tuple", "ns", lower, 0},
	{"db.view_maintain_share", "ratio", lower, 0},
	{"db.queue_overhead_us", "us", lower, 0},
	{"db.checkpoint_ms", "ms", lower, 0},
	{"db.checkpoint_bytes", "bytes", lower, 0},
	{"db.checkpoint_stall_batches", "count", lower, 0},
	{"db.recovery_replayed_batches", "count", lower, 0},
	{"wal.append_ns_per_tuple", "ns", lower, 0},
	{"wal.writes_per_batch", "count", lower, 0},
	{"wal.write_ms_total", "ms", lower, 0},
	{"wal.syncs", "count", lower, 0},
	{"wal.sync_ms_total", "ms", lower, 0},
	{"wal.segments", "count", lower, 0},
	{"wal.durable_overhead_share", "ratio", lower, 0},
	{"serve.lookup_ns", "ns", lower, 0},
	{"serve.scan_ns_per_row", "ns", lower, 0},
	{"serve.pin_ns", "ns", lower, 0},
	{"netserve.handler_lookup_us", "us", lower, 0},
	{"netserve.lookup_overhead_us", "us", lower, 0},
	{"netserve.apply_overhead_us", "us", lower, 0},
	{"netserve.apply_body_bytes_per_tuple", "bytes", lower, 0},
	{"netserve.lookup_resp_bytes", "bytes", lower, 0},
	{"netserve.status_429", "count", lower, 0},
	{"netserve.status_412", "count", lower, 0},
	{"netserve.status_5xx", "count", lower, 0},
	{"replica.bytes_shipped_per_tuple", "bytes", lower, 0},
	{"replica.frames", "count", lower, 0},
	{"replica.apply_ns_per_tuple", "ns", lower, 0},
	{"replica.lag_batches_p99", "count", lower, 0},
	{"replica.reconnects", "count", lower, 0},
	{"runtime.allocs_per_tuple", "count", lower, 0},
	{"runtime.alloc_bytes_per_tuple", "bytes", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_cpu_share", "ratio", lower, 0},
	{"runtime.work_cpu_s", "s", lower, 0},
	{"host.calib_alu_ns", "ns", lower, 0},
	{"host.calib_mem_ns", "ns", lower, 0},
	{"gen.write_late_p99_ms", "ms", lower, 0},
	{"gen.read_late_p99_ms", "ms", lower, 0},
	{"ledger.coverage", "ratio", higher, 0},
	{"ledger.share_data", "ratio", lower, 0},
	{"ledger.share_ivm", "ratio", lower, 0},
	{"ledger.share_wal", "ratio", lower, 0},
	{"ledger.share_db", "ratio", lower, 0},
	{"ledger.share_netserve", "ratio", lower, 0},
	{"ledger.share_serve", "ratio", lower, 0},
	{"trace_overhead", "ratio", higher, 0},
}

var perLayer = append(append([]metricDef{}, reportedOnly...), layerMetrics...)

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if _, dup := m[d.Name]; dup {
				panic("benchmark: metric declared twice: " + d.Name)
			}
			m[d.Name] = d
		}
	}
	return m
}()

// boundOf is the bound -compare applies to a metric on a workload: the
// manifest's for the bounded metrics, reportedBounds' for the others.
func boundOf(name, workload string) (float64, bool) {
	if d := metricByName[name]; d.Bound > 0 {
		return d.Bound, true
	}
	b, ok := reportedBounds[name][workload]
	return b, ok
}

// runSeconds is BENCHMARK.json's run_seconds: the shortest the issue allows,
// because the driver's 4 + 22 × 4 runs, each with its set-ups and checks,
// must fit its cap.
const runSeconds = 10

// manifestJSON renders BENCHMARK.json.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
