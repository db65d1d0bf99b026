package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/trace"
)

// streamWorkload is a workload that repeats one factorization of one
// seeded matrix back to back, one call at a time: tall, ooc and dist.
type streamWorkload interface {
	// open does the program-side set-up before the first call.
	open() error
	// factor runs one operation.
	factor() (fact, error)
	// verify checks the accuracy of a factorization factor returned. It
	// runs untimed, right after the first warm-up.
	verify(f fact) error
	// close releases what open set up.
	close()
}

const (
	// setupReps is how many times a run sets the program up (open plus a
	// warm-up call); setup_s is the median.
	setupReps = 3
	// minStreamOps is the least number of timed calls per run, budget or
	// not; a traced run needs two untraced and two traced.
	minStreamOps = 4
)

// streamRun is what runStream measured.
type streamRun struct {
	ref      fact
	untraced []float64 // seconds per call; +Inf for a failed call
	traced   []float64 // traced calls only (traced runs)
	rep      trace.Report
}

// runStream sets w up setupReps times, then times calls to it for the
// run's budget, checking each one against the first warm-up. In a
// traced run every second call runs with the trace recorder on. It
// records the end-to-end metrics in o and returns the raw timings for
// the per-layer metrics.
func runStream(cfg runConfig, w streamWorkload, o *outcome) (*streamRun, error) {
	defer w.close()
	baseline := settledHeap()
	run := &streamRun{}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.open(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		f, err := w.factor()
		setups = append(setups, time.Since(t0).Seconds())
		o.attempted++
		if err != nil {
			o.failOp("warm-up %d: %v", rep, err)
			return run, nil
		}
		if rep == 0 {
			if err := w.verify(f); err != nil {
				o.failOp("warm-up accuracy: %v", err)
			}
			f.q = nil // the reference must not keep Q alive
			run.ref = f
		} else if d := sameFact(f, run.ref); d != "" {
			o.failOp("warm-up %d: %s", rep, d)
		}
	}

	if cfg.traced {
		trace.Reset()
	}
	start := time.Now()
	for i := 0; i < minStreamOps || time.Since(start) < cfg.budget; i++ {
		traced := cfg.traced && i%2 == 1
		if traced {
			trace.Enable()
		}
		t0 := time.Now()
		f, err := w.factor()
		d := time.Since(t0).Seconds()
		if traced {
			trace.Disable()
		}
		o.attempted++
		if err != nil {
			o.failOp("call %d: %v", i, err)
			d = math.Inf(1)
		} else if diff := sameFact(f, run.ref); diff != "" {
			o.failOp("call %d: %s", i, diff)
			d = math.Inf(1)
		}
		if traced {
			run.traced = append(run.traced, d)
		} else {
			run.untraced = append(run.untraced, d)
		}
	}
	if cfg.traced {
		run.rep = trace.Snapshot()
	}
	// One more call, untimed, for the program's peak live heap.
	peak := peakLiveHeap(func() {
		o.attempted++
		if f, err := w.factor(); err != nil {
			o.failOp("heap probe call: %v", err)
		} else if diff := sameFact(f, run.ref); diff != "" {
			o.failOp("heap probe call: %s", diff)
		}
	})
	fmt.Fprintf(os.Stderr, "  set-up s %.3f, untraced calls s %.3f, traced calls s %.3f\n", setups, run.untraced, run.traced)

	o.set("setup_s", median(setups))
	o.set("latency_p50_ms", 1e3*median(run.untraced))
	o.set("peak_heap_mib", heapMiB(peak, baseline))
	return run, nil
}
