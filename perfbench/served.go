package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/internal/trace"
	"repro/mat"
	"repro/service"
)

// The served job mix: 80 % small Ite-CholQR-CP jobs, 10 % larger ones,
// 10 % larger CQRRPT jobs (the only jobs that reach internal/sketch and
// lapack.Geqp3). Jobs are drawn, in an order the run's seed picks, from a
// pool of distinct matrices that is the same for every seed, so that the
// work of a run does not depend on which matrices a seed would draw: the
// larger Ite-CholQR-CP jobs take half the compute, and the iteration
// count depends on the matrix.
const (
	poolSeed   = 1
	smallPool  = 64 // 1000×32: even ones κ=1e3 full rank, odd ones rank 24, σ=1e-12
	bigPool    = 8  // 4000×64, rank 50, σ=1e-12; as many again for CQRRPT
	zeroPool   = 8  // 1000×32 with one all-zero column, for the stall probe
	cqrrptSeed = 7

	// openRate is the open loop's fixed arrival rate, about a quarter of
	// the closed-loop saturation rate on the reference host. A fixed
	// interval, not a seeded Poisson schedule: the generator then never
	// bunches sends, and the p95 repeats from run to run.
	openRate = 40
	// closedOutstanding is the closed loop's number of jobs in flight,
	// under the server's default per-tenant budget of 64.
	closedOutstanding = 48
	// openShare is the share of a traced run's budget the open loop
	// gets; the closed loop gets the rest.
	openShare = 0.55
	// heapProbeBursts is how many bursts the peak live heap is sampled
	// over.
	heapProbeBursts = 10
	// servedSetupReps is how many times a run starts a server and dials
	// it; setup_s is the median.
	servedSetupReps = 5
)

// job is one pool entry with its in-process reference result.
type job struct {
	a    *mat.Dense
	opts *tsqrcp.Options
	ref  *tsqrcp.Factorization
	err  error // the in-process error, when the reference fails
}

// jobPool is the harness's pool of distinct jobs.
type jobPool struct {
	small, big, zero []*job
}

// newJobPool generates the pool and factors every job in process for
// reference.
func newJobPool(workers int) *jobPool {
	const seed = poolSeed
	p := &jobPool{}
	eng := tsqrcp.NewEngine(workers)
	mk := func(spec *matSpec, opts *tsqrcp.Options) *job {
		j := &job{a: spec.dense(1), opts: opts}
		j.ref, j.err = eng.QRCP(j.a, opts)
		return j
	}
	for i := 0; i < smallPool; i++ {
		s := seed*1000 + uint64(i)
		if i%2 == 0 {
			p.small = append(p.small, mk(newMatSpec(s, 1000, 32, 32, 1e-3), nil))
		} else {
			p.small = append(p.small, mk(newMatSpec(s, 1000, 32, 24, 1e-12), nil))
		}
	}
	for i := 0; i < 2*bigPool; i++ {
		var opts *tsqrcp.Options
		if i >= bigPool {
			opts = &tsqrcp.Options{Strategy: tsqrcp.StrategyCQRRPT, Seed: cqrrptSeed}
		}
		p.big = append(p.big, mk(newMatSpec(seed*1000+500+uint64(i), 4000, 64, 50, 1e-12), opts))
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < zeroPool; i++ {
		spec := newMatSpec(seed*1000+900+uint64(i), 1000, 32, 32, 1e-3)
		a := spec.dense(1)
		col := rng.Intn(32)
		for r := 0; r < a.Rows; r++ {
			a.Set(r, col, 0)
		}
		j := &job{a: a}
		j.ref, j.err = eng.QRCP(a, nil)
		p.zero = append(p.zero, j)
	}
	return p
}

// sequence draws n jobs of the mix from the pool, seeded. Every block
// of ten holds exactly eight small, one large Ite-CholQR-CP and one
// CQRRPT job in seeded order, so the realized mix — and with it the
// work a run does — does not vary with the seed.
func (p *jobPool) sequence(rng *rand.Rand, n int) []*job {
	seq := make([]*job, n)
	order := [10]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := range seq {
		if i%10 == 0 {
			rng.Shuffle(10, func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		switch order[i%10] {
		case 8:
			seq[i] = p.big[rng.Intn(bigPool)]
		case 9:
			seq[i] = p.big[bigPool+rng.Intn(bigPool)]
		default:
			seq[i] = p.small[rng.Intn(len(p.small))]
		}
	}
	return seq
}

// check compares a served result with the job's in-process result,
// errors included, and returns "" when they are identical.
func (j *job) check(f *tsqrcp.Factorization, err error) string {
	if j.err != nil {
		if err == nil {
			return fmt.Sprintf("served a result, in process failed with %v", j.err)
		}
		if !errors.Is(err, service.ErrFailed) || !strings.HasSuffix(err.Error(), j.err.Error()) {
			return fmt.Sprintf("served error %q, in process %q", err, j.err)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("served error %v", err)
	}
	if d := sameFact(fact{r: f.R, perm: f.Perm, iters: f.Iterations},
		fact{r: j.ref.R, perm: j.ref.Perm, iters: j.ref.Iterations}); d != "" {
		return d
	}
	if !sameBits(f.Q, j.ref.Q) {
		return "Q differs"
	}
	return ""
}

// endpoint is a running server and the one client connection to it.
type endpoint struct {
	srv    *service.Server
	cl     *service.Client
	served chan error
}

// startEndpoint starts a server on a loopback port and dials it.
func startEndpoint(workers int) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{srv: service.New(service.Config{Engine: tsqrcp.NewEngine(workers)}),
		served: make(chan error, 1)}
	go func() { ep.served <- ep.srv.Serve(ln) }()
	ep.cl, err = service.Dial(ln.Addr().String())
	if err != nil {
		ep.close()
		return nil, err
	}
	return ep, nil
}

// close hangs up, drains the server and waits for Serve to return.
func (ep *endpoint) close() {
	if ep.cl != nil {
		ep.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ep.srv.Shutdown(ctx)
	<-ep.served
}

// factor sends one job and checks its result against the reference.
// It returns how the result differs from the in-process one ("" when
// identical, errors included) and the job's error.
func (ep *endpoint) factor(j *job) (mismatch string, err error) {
	f, err := ep.cl.Factor(context.Background(), service.Request{A: j.a, Options: j.opts})
	return j.check(f, err), err
}

// count records one served job in o: a mismatch is a failed check, and
// a job that failed — even exactly as it fails in process — is a failed
// operation. It reports whether the job succeeded.
func count(o *outcome, what, mismatch string, err error) bool {
	o.attempted++
	switch {
	case mismatch != "":
		o.failOp("%s: %s", what, mismatch)
	case err != nil:
		o.failed++
	}
	return err == nil && mismatch == ""
}

// runServed runs the served workload over one connection to an
// in-process server: an open loop at openRate, and in the traced run a
// closed loop with closedOutstanding jobs in flight.
func runServed(cfg runConfig, o *outcome) error {
	pool := newJobPool(cfg.workers)
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	warm := []*job{pool.small[0], pool.small[1], pool.big[0], pool.big[bigPool]}
	baseline := settledHeap()

	var setups []float64
	var ep *endpoint
	for rep := 0; rep < servedSetupReps; rep++ {
		if ep != nil {
			ep.close()
		}
		t0 := time.Now()
		var err error
		if ep, err = startEndpoint(cfg.workers); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		for _, j := range warm {
			mismatch, err := ep.factor(j)
			count(o, "warm-up job", mismatch, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ep.close()

	// The untraced run spends its whole budget in the open loop. The
	// traced run gives openShare of it to the open loop and the rest to a
	// closed loop that measures saturation and batching.
	openDur := cfg.budget
	if cfg.traced {
		openDur = time.Duration(openShare * float64(cfg.budget))
	}
	before := ep.srv.Stats()
	openSeq := pool.sequence(rng, int(openDur.Seconds()*openRate))
	open := openLoop(ep.factor, openSeq, time.Second/openRate, o)
	if cfg.traced {
		depth := startMax(func() uint64 { return uint64(ep.srv.Stats().QueueDepth) })
		closed := closedLoop(ep, pool, rng, cfg.budget-openDur, o)
		o.set("service.queue_depth_max", float64(depth.stop()))
		o.set("service.saturation_jobs_per_s", float64(closed.ok)/closed.elapsed)
	}
	after := ep.srv.Stats()
	// Untimed, for the program's peak live heap: the same burst of four
	// blocks of the mix, all sent at once; the median of the bursts'
	// peaks, since how far the server gets before the last job lands
	// varies from burst to burst.
	burst := pool.sequence(rng, 40)
	var peaks []float64
	for i := 0; i < heapProbeBursts; i++ {
		peaks = append(peaks, float64(peakLiveHeap(func() { openLoop(ep.factor, burst, 0, o) })))
	}
	peak := uint64(median(peaks))

	o.set("setup_s", median(setups))
	o.set("latency_p50_ms", 1e3*median(open.latency))
	if p95, ok := tailPercentile(open.latency, 0.95); ok {
		o.set("latency_p95_ms", 1e3*p95)
	}
	o.set("peak_heap_mib", heapMiB(peak, baseline))
	o.set("harness.late_max_ms", 1e3*open.lateMax)
	if !cfg.traced {
		return nil
	}

	batches := float64(after.Batches - before.Batches)
	o.set("service.jobs_per_batch", float64(after.Accepted-before.Accepted)/max(batches, 1))
	o.set("service.flush_full_frac", float64(after.FlushFull-before.FlushFull)/max(batches, 1))
	o.set("service.rejected", float64(after.RejectedQueue+after.RejectedTenant))
	var rtt []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if _, err := ep.cl.Stats(context.Background()); err != nil {
			return fmt.Errorf("stats query: %w", err)
		}
		rtt = append(rtt, time.Since(t).Seconds())
	}
	o.set("service.stats_rtt_p50_us", 1e6*median(rtt))

	// The zero-column probe is not part of the job mix: its jobs are
	// expected to fail today, so they are checked against in-process
	// results but reported as a share, not counted as failed operations.
	var stalls float64
	for _, j := range pool.zero {
		mismatch, err := ep.factor(j)
		if mismatch != "" {
			o.fail("zero-column job: %s", mismatch)
		}
		if err != nil {
			stalls++
		}
	}
	o.set("tsqrcp.zero_col_fail_frac", stalls/zeroPool)
	return inProcessPass(cfg, openSeq, open.latency, o)
}

// inProcessPass runs the open loop's job sequence through in-process
// Engine.QRCPBatch, one job per batch, each job once untraced and then
// once traced: the service overhead is the served latency minus the
// untraced time, and the traced calls give the per-job stage breakdown.
func inProcessPass(cfg runConfig, seq []*job, served []float64, o *outcome) error {
	eng := tsqrcp.NewEngine(cfg.workers)
	untraced := make([]float64, len(seq))
	traced := make([]float64, len(seq))
	trace.Reset()
	for i, j := range seq {
		for _, on := range []bool{false, true} {
			if on {
				trace.Enable()
			}
			t := time.Now()
			res, err := eng.QRCPBatch(context.Background(), []*mat.Dense{j.a},
				&tsqrcp.BatchOptions{Options: optsOrZero(j.opts)})
			d := time.Since(t).Seconds()
			trace.Disable()
			if err != nil {
				return err
			}
			if mismatch := j.check(res[0].F, wrapFailed(res[0].Err)); mismatch != "" {
				o.fail("in-process batch differs from the reference: %s", mismatch)
			}
			if on {
				traced[i] = d
			} else {
				untraced[i] = d
			}
		}
	}
	rep := trace.Snapshot()

	var over []float64
	var iters, n float64
	for i, j := range seq {
		if !math.IsInf(served[i], 1) {
			over = append(over, served[i]-untraced[i])
		}
		if j.ref != nil {
			iters += float64(j.ref.Iterations)
			n++
		}
	}
	o.set("service.overhead_p50_ms", 1e3*median(over))
	o.set("tsqrcp.batch_p50_ms", 1e3*median(untraced))
	o.set("tsqrcp.iterations", iters/n)
	setCoreLayers(o, rep, len(seq), 0, untraced, traced)
	return nil
}

// optsOrZero dereferences job options, nil meaning the defaults.
func optsOrZero(o *tsqrcp.Options) tsqrcp.Options {
	if o == nil {
		return tsqrcp.Options{}
	}
	return *o
}

// wrapFailed gives an in-process error the form the server reports it
// in, so job.check compares both the same way.
func wrapFailed(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s", service.ErrFailed, err.Error())
}

// openResult is what the open loop measured.
type openResult struct {
	latency []float64 // seconds from due time to result; +Inf if failed
	lateMax float64   // seconds the generator sent behind schedule, at most
}

// openLoop sends seq at a fixed interval, whatever the server's
// progress, and times each job from the moment it was due, so a stall
// also counts against the jobs queued behind it. factor sends one job
// and checks its result (endpoint.factor).
func openLoop(factor func(*job) (string, error), seq []*job, interval time.Duration, o *outcome) openResult {
	res := openResult{latency: make([]float64, len(seq))}
	errs := make([]error, len(seq))
	mismatches := make([]string, len(seq))
	var wg sync.WaitGroup
	late := paced(len(seq), interval, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mismatches[i], errs[i] = factor(seq[i])
			res.latency[i] = time.Since(due).Seconds()
		}()
	})
	wg.Wait()
	res.lateMax = late.Seconds()
	for i := range seq {
		if !count(o, fmt.Sprintf("open-loop job %d", i), mismatches[i], errs[i]) {
			res.latency[i] = math.Inf(1)
		}
	}
	return res
}

// paced calls send(i, due) for i = 0..n-1, each at its due time start +
// i·interval or as soon after it as the previous send returned, and
// returns how late it made a call, at most.
func paced(n int, interval time.Duration, send func(i int, due time.Time)) time.Duration {
	var late time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late = max(late, time.Since(due))
		send(i, due)
	}
	return late
}

// closedResult is what the closed loop measured.
type closedResult struct {
	ok      int
	elapsed float64
}

// closedLoop keeps closedOutstanding jobs in flight for d, each sender
// drawing its next job from the seeded mix as soon as its last one
// returns.
func closedLoop(ep *endpoint, pool *jobPool, rng *rand.Rand, d time.Duration, o *outcome) closedResult {
	var mu sync.Mutex
	var res closedResult
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < closedOutstanding; s++ {
		// Each sender gets its own seeded stream, so the mix does not
		// depend on which sender wins a race.
		seq := pool.sequence(rand.New(rand.NewSource(rng.Int63())), 4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range seq {
				if time.Since(start) >= d {
					return
				}
				mismatch, err := ep.factor(j)
				mu.Lock()
				if count(o, "closed-loop job", mismatch, err) {
					res.ok++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	return res
}
