package main

import (
	"math/rand"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/internal/blas"
	"repro/internal/cholcp"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/mat"
)

// probeRows is the height of the kernel probes' matrix: 64 MiB at 64
// columns, the tall matrix's shape at half its height.
const probeRows = 1 << 17

// layerGroups are the per-layer metrics only one workload exercises. A
// traced run of another workload measures them on a shortened run of
// that workload (cfg.mini), so every traced run prints every metric.
var layerGroups = []struct {
	workload string
	metrics  []string
}{
	{"ooc", []string{"ooc.read_gb_per_s", "ooc.stall_frac", "ooc.bytes_read_per_op",
		"ooc.overhead_ratio", "mat.panel_read_gb_per_s"}},
	{"dist", []string{"dist.collectives_per_op", "dist.comm_bytes_per_op", "dist.comm_wait_frac"}},
	{"served", []string{"service.saturation_jobs_per_s", "service.overhead_p50_ms", "service.stats_rtt_p50_us", "tsqrcp.batch_p50_ms",
		"service.jobs_per_batch", "service.flush_full_frac", "service.queue_depth_max",
		"service.rejected", "harness.late_max_ms", "tsqrcp.zero_col_fail_frac"}},
}

// miniBudget is the measured time of a shortened workload run.
const miniBudget = 2 * time.Second

// probeLayers measures the layers a traced run does not reach through
// its workload: the roofs, the kernels at a fixed shape, the parallel
// scaling of Ite-CholQR-CP, and the layer groups of the other workloads.
func probeLayers(cfg runConfig, o *outcome) error {
	roofs(cfg.workers, o)
	kernels(cfg, o)
	for _, g := range layerGroups {
		if g.workload == cfg.workload {
			continue
		}
		mini := cfg
		mini.workload, mini.mini, mini.budget = g.workload, true, miniBudget
		mo := newOutcome()
		if err := workloads[g.workload](mini, mo); err != nil {
			return err
		}
		for _, name := range g.metrics {
			if v, ok := mo.values[name]; ok {
				o.set(name, v)
			}
		}
		for _, p := range mo.problems {
			o.fail("%s probe: %s", g.workload, p)
		}
	}
	return nil
}

// timeReps runs f reps times and returns the median seconds; prep runs
// untimed before each call.
func timeReps(reps int, prep, f func()) float64 {
	var ts []float64
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		t := time.Now()
		f()
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}

// kernels times the hot kernels on a fixed probe matrix at the run's
// engine width, and Engine.QRCP at width 1 against full width.
func kernels(cfg runConfig, o *outcome) {
	e := parallel.NewEngine(cfg.workers)
	spec := newMatSpec(cfg.seed, probeRows, tallCols, tallRank, tallSigma)
	src := spec.dense(cfg.workers)
	m, n := float64(src.Rows), float64(src.Cols)
	b := mat.NewDense(src.Rows, src.Cols)
	reset := func() { b.Copy(src) }

	// A well-conditioned upper triangular R and a fixed permutation.
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	r := mat.NewDense(tallCols, tallCols)
	for i := 0; i < tallCols; i++ {
		r.Set(i, i, 1+rng.Float64())
		for j := i + 1; j < tallCols; j++ {
			r.Set(i, j, (rng.Float64()-0.5)/tallCols)
		}
	}
	perm := mat.Perm(rng.Perm(tallCols))
	g := mat.NewDense(tallCols, tallCols)

	fused := timeReps(5, reset, func() { blas.PermTrsmGramFused(e, b, perm, r, g) })
	fusedGF := (m*n*n + m*n*(n+1)) / fused / 1e9
	o.set("blas.fused_gflops", fusedGF)
	o.set("blas.fused_gb_per_s", 16*m*n/fused/1e9)
	o.set("blas.fused_roof_frac", fusedGF/o.values["roof.fma_gflops"])
	trsm := timeReps(5, reset, func() { blas.TrsmRightUpperNoTrans(e, b, r) })
	o.set("blas.trsm_gflops", m*n*n/trsm/1e9)
	gram := timeReps(5, nil, func() { blas.Gram(e, g, src) })
	o.set("blas.gram_gflops", m*n*(n+1)/gram/1e9)

	// The n×n work: P-Chol-CP of the probe's Gram matrix, Householder
	// QRCP of its 2n×n sparse sketch.
	blas.Gram(e, g, src)
	o.set("cholcp.pcholcp_us", 1e6*timeReps(101, nil, func() { cholcp.PCholCP(e, g, tsqrcp.DefaultPivotTol) }))
	d := core.CQRRPTSketchFactor * tallCols
	sa := mat.NewDense(d, tallCols)
	nnz := min(sketch.DefaultNNZ, d)
	sk := timeReps(5, nil, func() { sketch.ApplySparse(e, sa, src, nnz, uint64(cfg.seed)) })
	o.set("sketch.sparse_gb_per_s", 8*m*n/sk/1e9)
	qa := mat.NewDense(d, tallCols)
	tau := make([]float64, tallCols)
	jpvt := make(mat.Perm, tallCols)
	o.set("lapack.geqp3_us", 1e6*timeReps(101, func() { qa.Copy(sa) }, func() { lapack.Geqp3(e, qa, tau, jpvt) }))

	// Ite-CholQR-CP on the upper half of the probe matrix, at width 1
	// and at the run's width, alternating.
	half := src.RowSlice(0, src.Rows/2)
	var w1, wn []float64
	for i := 0; i < 2; i++ {
		for _, width := range []int{1, cfg.workers} {
			t := time.Now()
			if _, err := tsqrcp.NewEngine(width).QRCP(half, nil); err != nil {
				o.fail("scaling probe at width %d: %v", width, err)
				return
			}
			if width == 1 {
				w1 = append(w1, time.Since(t).Seconds())
			} else {
				wn = append(wn, time.Since(t).Seconds())
			}
		}
	}
	o.set("parallel.scaling_w2", median(w1)/median(wn))
}

// roofs measures this host's ceilings for the kernels: copy bandwidth
// over buffers larger than the last-level cache, and the multiply-add
// rate of scalar Go code, both on workers goroutines.
func roofs(workers int, o *outcome) {
	const words = 8 << 20 // 64 MiB per buffer
	src := make([]float64, words)
	dst := make([]float64, words)
	for i := range src {
		src[i] = float64(i)
	}
	copySec := timeReps(5, nil, func() {
		onWorkers(workers, func(w int) {
			lo, hi := w*words/workers, (w+1)*words/workers
			copy(dst[lo:hi], src[lo:hi])
		})
	})
	o.set("roof.copy_gb_per_s", 2*8*words/copySec/1e9)

	const iters = 1 << 24
	sink := make([]float64, workers)
	fmaSec := timeReps(3, nil, func() {
		onWorkers(workers, func(w int) { sink[w] = madd(iters, float64(w)) })
	})
	o.set("roof.fma_gflops", float64(workers)*iters*8*2/fmaSec/1e9)
}

// madd runs iters rounds of eight independent multiply-add chains, the
// a*b+c shape of the kernels' inner loops.
func madd(iters int, seed float64) float64 {
	x, y := 0.999999, 1e-9
	a0, a1, a2, a3 := seed, seed+1, seed+2, seed+3
	a4, a5, a6, a7 := seed+4, seed+5, seed+6, seed+7
	for i := 0; i < iters; i++ {
		a0 = a0*x + y
		a1 = a1*x + y
		a2 = a2*x + y
		a3 = a3*x + y
		a4 = a4*x + y
		a5 = a5*x + y
		a6 = a6*x + y
		a7 = a7*x + y
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// onWorkers runs f(0..workers-1) on workers goroutines and waits.
func onWorkers(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}
