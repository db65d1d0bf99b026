package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef is one declared metric: its unit as printed.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run prints, on
// every workload; BENCHMARK.json declares the same list with the same
// units (metrics_test.go checks it).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mib", "MiB"},
}

// layerMetrics are the per-layer metrics every traced run prints, on
// every workload (README.md says where each one comes from).
var layerMetrics = []metricDef{
	{"blas.fused_gflops", "GFLOP/s"},
	{"blas.fused_gb_per_s", "GB/s"},
	{"blas.fused_roof_frac", "ratio"},
	{"blas.trsm_gflops", "GFLOP/s"},
	{"blas.gram_gflops", "GFLOP/s"},
	{"cholcp.pcholcp_us", "us"},
	{"lapack.geqp3_us", "us"},
	{"sketch.sparse_gb_per_s", "GB/s"},
	{"core.total_s", "s"},
	{"core.gram_frac", "ratio"},
	{"core.trsm_frac", "ratio"},
	{"core.fused_frac", "ratio"},
	{"core.swap_frac", "ratio"},
	{"core.cholcp_frac", "ratio"},
	{"core.trmm_frac", "ratio"},
	{"core.sketch_frac", "ratio"},
	{"core.precond_frac", "ratio"},
	{"core.allreduce_frac", "ratio"},
	{"core.stage_sum_frac", "ratio"},
	{"tsqrcp.iterations", "count"},
	{"tsqrcp.zero_col_fail_frac", "ratio"},
	{"parallel.busy_frac", "ratio"},
	{"parallel.scaling_w2", "ratio"},
	{"mat.workspace_miss_frac", "ratio"},
	{"mat.panel_read_gb_per_s", "GB/s"},
	{"ooc.read_gb_per_s", "GB/s"},
	{"ooc.stall_frac", "ratio"},
	{"ooc.bytes_read_per_op", "bytes"},
	{"ooc.overhead_ratio", "ratio"},
	{"dist.collectives_per_op", "count"},
	{"dist.comm_bytes_per_op", "bytes"},
	{"dist.comm_wait_frac", "ratio"},
	{"service.overhead_p50_ms", "ms"},
	{"service.stats_rtt_p50_us", "us"},
	{"tsqrcp.batch_p50_ms", "ms"},
	{"service.saturation_jobs_per_s", "1/s"},
	{"service.jobs_per_batch", "count"},
	{"service.flush_full_frac", "ratio"},
	{"service.queue_depth_max", "count"},
	{"service.rejected", "count"},
	{"roof.copy_gb_per_s", "GB/s"},
	{"roof.fma_gflops", "GFLOP/s"},
	{"harness.late_max_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.total_wall_frac", "ratio"},
}

// outcome is what one run reports: operations attempted and failed, the
// verdict of every correctness check, and the metric values by name.
type outcome struct {
	attempted, failed int
	problems          []string // failed checks, one line each
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed check. A check that belongs to an operation also
// counts that operation as failed; the caller does that with failOp.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// failOp records a failed operation and why.
func (o *outcome) failOp(format string, args ...any) {
	o.failed++
	o.fail(format, args...)
}

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the result line for the declared metrics defs. A
// declared metric the run did not produce, or produced as a non-finite
// number, is a failed check: the line then says correct=false, and the
// value printed is the largest finite float64 so the line stays valid
// JSON.
func (o *outcome) result(defs []metricDef) resultLine {
	line := resultLine{Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.values[d.name]
		switch {
		case !ok:
			o.fail("metric %s was not measured", d.name)
			v = math.MaxFloat64
		case math.IsNaN(v) || math.IsInf(v, 0):
			o.fail("metric %s is %v", d.name, v)
			v = math.MaxFloat64
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if line.Attempted < 1 {
		o.fail("no operation was attempted")
		line.Attempted, line.Failed = 1, 1
	}
	line.Correct = len(o.problems) == 0
	return line
}

// emit prints every measured value and every failed check to standard
// error, then the result line to standard output.
func (o *outcome) emit(defs []metricDef) {
	line := o.result(defs)
	names := make([]string, 0, len(o.values))
	for k := range o.values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %.6g\n", k, o.values[k])
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}
