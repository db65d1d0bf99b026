package main

import (
	"math"
	"runtime"

	"repro/internal/trace"
)

// stageMetrics maps the algorithm stages of internal/trace (which do not
// overlap, so each one's time is self time) to their metrics: each
// stage's share of the call. Shares, not seconds, so that a stage a
// workload bypasses reads 0 as a ratio, never as a constant time;
// core.total_s times a share gives the stage's seconds per call.
var stageMetrics = []struct {
	metric string
	stage  trace.Stage
}{
	{"core.gram_frac", trace.StageGram},
	{"core.cholcp_frac", trace.StageCholCP},
	{"core.trsm_frac", trace.StageTrsm},
	{"core.swap_frac", trace.StageSwap},
	{"core.trmm_frac", trace.StageTrmm},
	{"core.fused_frac", trace.StageFused},
	{"core.sketch_frac", trace.StageSketch},
	{"core.precond_frac", trace.StagePrecond},
	{"core.allreduce_frac", trace.StageAllreduce},
}

// reconcileSlack is the share of a traced call the stage spans may leave
// unaccounted beyond the measured tracing overhead: the glue code
// between stages has no span of its own — chiefly copying A into the
// working matrix (3–6 % of a tall call on the reference host) and, out
// of core, opening files and writing Q (about 9 % of an ooc call).
const reconcileSlack = 0.15

// setCoreLayers records the stage breakdown of calls traced calls, the
// tracing overhead, and the reconciliation of the two. Stage shares are
// of denomNs, or of the Total span when denomNs is 0. untraced and
// traced are the per-call wall times of the same operation without and
// with the recorder.
func setCoreLayers(o *outcome, rep trace.Report, calls int, denomNs float64, untraced, traced []float64) {
	total, _ := rep.Stage(trace.StageTotal.String())
	if denomNs == 0 {
		denomNs = float64(total.TotalNs)
	}
	var stageFrac float64
	for _, sm := range stageMetrics {
		st, _ := rep.Stage(sm.stage.String())
		stageFrac += float64(st.TotalNs) / denomNs
		o.set(sm.metric, float64(st.TotalNs)/denomNs)
	}
	// Means, not medians: the served job mix is heterogeneous, and
	// Total is a sum over the same calls.
	tracedWall := sum64(traced)
	untracedMean := sum64(untraced) / float64(len(untraced))
	overhead := tracedWall / float64(len(traced)) / untracedMean
	o.set("core.stage_sum_frac", stageFrac)
	o.set("trace.overhead_frac", overhead)
	// Where no Total span exists (dist ranks), the harness's own timing
	// of the traced calls stands in for it.
	totalS := tracedWall
	if total.TotalNs > 0 {
		totalS = float64(total.TotalNs) / 1e9
	}
	totalWall := totalS / float64(calls) / untracedMean
	o.set("core.total_s", totalS/float64(calls))
	o.set("trace.total_wall_frac", totalWall)
	if math.Abs(totalWall-overhead) > math.Abs(overhead-1)+reconcileSlack {
		o.fail("traced Total per call is %.3f× the untraced wall time, tracing overhead %.3f×", totalWall, overhead)
	}
	if math.Abs(stageFrac-1) > math.Abs(overhead-1)+reconcileSlack {
		o.fail("stages sum to %.3f of Total, tracing overhead %.3f×", stageFrac, overhead)
	}

	var busy float64
	for _, w := range rep.Workers {
		busy += float64(w.BusyNs)
	}
	o.set("parallel.busy_frac", busy/1e9/tracedWall/float64(runtime.GOMAXPROCS(0)))
	gets := float64(rep.Counters["workspace_gets"])
	o.set("mat.workspace_miss_frac", float64(rep.Counters["workspace_misses"])/max(gets, 1))
}

// sum64 adds xs.
func sum64(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
