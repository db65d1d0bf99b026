// Command perfbench is the repository's benchmark: it runs one workload
// of tsqrcp on seeded inputs, checks every result, and prints its
// metrics — the end-to-end metrics by default, the per-layer metrics of
// a traced run with --trace 1. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0,
//	 "metrics": {"latency_p50_ms": {"value": 1703.2, "unit": "ms"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tall --seed 1 --seconds 15 --trace 0
//
// --steady N runs the workload N times in child processes, seeds 1..N,
// and prints each metric's median, quartiles and range. README.md lists
// the workloads, the metrics and what each one is expected to move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	budget   time.Duration // measured time of the workload's timed section
	traced   bool
	mini     bool   // a shortened input, for a layer probe of a traced run
	workers  int    // engine width: GOMAXPROCS, capped at the core count
	dir      string // scratch directory for files, inside the checkout
}

// workloads maps each workload name to its runner. A runner fills o
// with the end-to-end metrics, or with the per-layer metrics of its own
// layers when cfg.traced is set.
var workloads = map[string]func(cfg runConfig, o *outcome) error{
	"tall":   runTall,
	"ooc":    runOOC,
	"dist":   runDist,
	"served": runServed,
}

func main() {
	workload := flag.String("workload", "", "workload to run: tall, ooc, dist or served")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	steady := flag.Int("steady", 0, "run the workload this many times, seeds 1..N, and print each metric's spread")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown --workload %q", *workload)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *steady > 0 {
		if err := steadiness(*workload, *steady, *seconds, *traced == 1); err != nil {
			fatalf("%v", err)
		}
		return
	}

	workers := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-run", fmt.Sprint(os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		workers:  workers,
		dir:      dir,
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, *seconds, *traced)

	o := newOutcome()
	if err := workloads[cfg.workload](cfg, o); err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", cfg.workload, err)
	}
	defs := e2eMetrics
	if cfg.traced {
		if err := probeLayers(cfg, o); err != nil {
			os.RemoveAll(dir)
			fatalf("layer probes: %v", err)
		}
		defs = layerMetrics
	}
	o.emit(defs)
}

// fatalf reports an error that leaves no result to print and exits
// non-zero.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
