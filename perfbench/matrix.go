package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/dist"
	"repro/internal/trace"
	"repro/mat"
)

// The tall workloads' matrix: the paper's σ-profile with numerical rank
// 48 and σ = 1e-12, so Ite-CholQR-CP needs four pivoting iterations. At
// 2¹⁷×64 it is 64 MiB. The kernels are compute-bound — on the reference
// host a call at 2¹⁸ rows takes twice as long as one at 2¹⁷ — so the
// shorter matrix buys twice the calls per run at the same per-row cost.
const (
	tallRows  = 1 << 17
	miniRows  = 1 << 15 // the same matrix, shortened, for layer probes
	tallCols  = 64
	tallRank  = 48
	tallSigma = 1e-12
)

// tallSpec is the run's seeded tall matrix.
func tallSpec(cfg runConfig) *matSpec {
	m := tallRows
	if cfg.mini {
		m = miniRows
	}
	return newMatSpec(cfg.seed, m, tallCols, tallRank, tallSigma)
}

// tallWorkload is in-core Engine.QRCP (Ite-CholQR-CP) at engine width
// cfg.workers.
type tallWorkload struct {
	a       *mat.Dense
	workers int
	eng     *tsqrcp.Engine
}

func (w *tallWorkload) open() error {
	w.eng = tsqrcp.NewEngine(w.workers)
	return nil
}

func (w *tallWorkload) factor() (fact, error) {
	f, err := w.eng.QRCP(w.a, nil)
	if err != nil {
		return fact{}, err
	}
	return fact{r: f.R, perm: f.Perm, iters: f.Iterations, q: []*mat.Dense{f.Q}}, nil
}

func (w *tallWorkload) verify(f fact) error { return checkAccuracy(w.a, stack(f.q), f) }
func (w *tallWorkload) close()              { w.eng = nil }

// runTall runs the tall workload.
func runTall(cfg runConfig, o *outcome) error {
	w := &tallWorkload{a: tallSpec(cfg).dense(cfg.workers), workers: cfg.workers}
	run, err := runStream(cfg, w, o)
	if err != nil || !cfg.traced {
		return err
	}
	o.set("tsqrcp.iterations", float64(run.ref.iters))
	setCoreLayers(o, run.rep, len(run.traced), 0, run.untraced, run.traced)
	return nil
}

// distWorkload is dist.IteCholQRCP over an in-process dist.LocalComm
// group of cfg.workers ranks, each holding a contiguous block of rows.
type distWorkload struct {
	a      *mat.Dense
	ranks  int
	blocks []*mat.Dense
	comms  []*dist.InstrumentedComm
	comm   commTotals // rank 0's, over the calls since the last open
}

// commTotals sums rank 0's communication counters and wall time.
type commTotals struct {
	calls, collectives int
	bytes              int64
	wait, wall         time.Duration
}

func (w *distWorkload) open() error {
	layout := dist.Layout{M: w.a.Rows, P: w.ranks}
	w.blocks = make([]*mat.Dense, w.ranks)
	w.comms = make([]*dist.InstrumentedComm, w.ranks)
	for r, c := range dist.NewLocalGroup(w.ranks) {
		lo, hi := layout.RowRange(r)
		w.blocks[r] = w.a.RowSlice(lo, hi)
		w.comms[r] = dist.Instrument(c)
	}
	w.comm = commTotals{}
	return nil
}

// factor runs every rank to completion and returns rank 0's result after
// checking that every rank holds the same R and pivots.
func (w *distWorkload) factor() (fact, error) {
	res := make([]*dist.QRCPResult, w.ranks)
	errs := make([]error, w.ranks)
	w.comms[0].ResetStats()
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < w.ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res[r], errs[r] = dist.IteCholQRCP(w.comms[r], w.blocks[r], tsqrcp.DefaultPivotTol)
		}(r)
	}
	wg.Wait()
	s := w.comms[0].Stats()
	w.comm.calls++
	w.comm.collectives += s.Collectives
	w.comm.bytes += s.Bytes
	w.comm.wait += s.CommTime
	w.comm.wall += time.Since(start)
	for r, err := range errs {
		if err != nil {
			return fact{}, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	f := fact{r: res[0].R, perm: res[0].Perm, iters: res[0].Iterations}
	for r, x := range res {
		if d := sameFact(fact{r: x.R, perm: x.Perm, iters: x.Iterations}, f); d != "" {
			return fact{}, fmt.Errorf("rank %d disagrees with rank 0: %s", r, d)
		}
		f.q = append(f.q, x.QLocal)
	}
	return f, nil
}

// verify checks the factorization of the whole matrix, with the ranks'
// blocks of Q stacked.
func (w *distWorkload) verify(f fact) error { return checkAccuracy(w.a, stack(f.q), f) }
func (w *distWorkload) close()              { w.blocks, w.comms = nil, nil }

// runDist runs the dist workload.
func runDist(cfg runConfig, o *outcome) error {
	w := &distWorkload{a: tallSpec(cfg).dense(cfg.workers), ranks: cfg.workers}
	run, err := runStream(cfg, w, o)
	if err != nil || !cfg.traced {
		return err
	}
	// Every call does the same collectives, so counts over the calls
	// since the last set-up are exact per call.
	calls := float64(w.comm.calls)
	o.set("tsqrcp.iterations", float64(run.ref.iters))
	o.set("dist.collectives_per_op", float64(w.comm.collectives)/calls)
	o.set("dist.comm_bytes_per_op", float64(w.comm.bytes)/calls)
	o.set("dist.comm_wait_frac", w.comm.wait.Seconds()/w.comm.wall.Seconds())
	// Ranks run concurrently and no rank opens a Total span, so stage
	// times are reconciled against ranks × wall time.
	setCoreLayers(o, run.rep, len(run.traced), float64(w.ranks)*sum64(run.traced)*1e9, run.untraced, run.traced)
	return nil
}

// oocPanelRows pins the out-of-core panel height (8 MiB panels at 64
// columns): auto-tuning reads free memory, which moves with whatever
// else the host runs.
const oocPanelRows = 16384

// oocWorkload is tsqrcp.Engine.QRCPFile on a binary-format file written
// panel by panel, with the scratch file and the streamed Q in the same
// directory.
type oocWorkload struct {
	path, qPath, dir string
	workers          int
	eng              *tsqrcp.Engine
	opts             *tsqrcp.FileOptions
}

func (w *oocWorkload) open() error {
	w.eng = tsqrcp.NewEngine(w.workers)
	w.opts = &tsqrcp.FileOptions{PanelRows: oocPanelRows, QPath: w.qPath, ScratchDir: w.dir}
	return nil
}

func (w *oocWorkload) factor() (fact, error) {
	f, err := w.eng.QRCPFile(w.path, w.opts)
	if err != nil {
		return fact{}, err
	}
	return fact{r: f.R, perm: f.Perm, iters: f.Iterations}, nil
}

// verify reads A and the streamed Q back and checks them.
func (w *oocWorkload) verify(f fact) error {
	a, err := mat.ReadBinaryFile(w.path)
	if err != nil {
		return err
	}
	q, err := mat.ReadBinaryFile(w.qPath)
	if err != nil {
		return err
	}
	return checkAccuracy(a, q, f)
}

func (w *oocWorkload) close() { w.eng, w.opts = nil, nil }

// runOOC runs the ooc workload.
func runOOC(cfg runConfig, o *outcome) error {
	spec := tallSpec(cfg)
	dir, err := os.MkdirTemp(cfg.dir, "ooc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := &oocWorkload{path: filepath.Join(dir, "a.bin"), qPath: filepath.Join(dir, "q.bin"),
		dir: dir, workers: cfg.workers}
	if err := spec.writeFile(w.path); err != nil {
		return err
	}
	run, err := runStream(cfg, w, o)
	if err != nil || !cfg.traced {
		return err
	}
	o.set("tsqrcp.iterations", float64(run.ref.iters))
	setCoreLayers(o, run.rep, len(run.traced), 0, run.untraced, run.traced)
	calls := float64(len(run.traced))
	read, _ := run.rep.Stage(trace.StageOOCRead.String())
	total, _ := run.rep.Stage(trace.StageTotal.String())
	bytes := float64(run.rep.Counters["ooc_bytes_read"])
	o.set("ooc.bytes_read_per_op", bytes/calls)
	o.set("ooc.read_gb_per_s", bytes/float64(read.TotalNs))
	o.set("ooc.stall_frac", float64(run.rep.Counters["ooc_prefetch_stall_ns"])/float64(total.TotalNs))
	return oocTwin(w, run, o)
}

// oocTwin factors the file's matrix in core, checks that the
// out-of-core result is bit-identical to it (R, pivots and Q), and
// records the cost of streaming: the out-of-core call time over the
// in-core call time on the same data, and the mat panel reader's rate.
func oocTwin(w *oocWorkload, run *streamRun, o *outcome) error {
	panelGBs, err := readPanels(w.path)
	if err != nil {
		return err
	}
	o.set("mat.panel_read_gb_per_s", panelGBs)

	a, err := mat.ReadBinaryFile(w.path)
	if err != nil {
		return err
	}
	eng := tsqrcp.NewEngine(w.workers)
	var times []float64
	var f *tsqrcp.Factorization
	for i := 0; i < 2; i++ {
		t := time.Now()
		f, err = eng.QRCP(a, nil)
		times = append(times, time.Since(t).Seconds())
		if err != nil {
			o.fail("in-core twin: %v", err)
			return nil
		}
	}
	if d := sameFact(fact{r: f.R, perm: f.Perm, iters: f.Iterations}, run.ref); d != "" {
		o.fail("out-of-core differs from in-core: %s", d)
	}
	q, err := mat.ReadBinaryFile(w.qPath)
	if err != nil {
		return err
	}
	if !sameBits(q, f.Q) {
		o.fail("out-of-core Q differs from in-core Q")
	}
	o.set("ooc.overhead_ratio", median(run.untraced)/median(times))
	return nil
}

// readPanels reads the whole file through the mat panel reader, one
// pinned-height panel at a time, and returns the rate in GB/s (the
// median of three passes).
func readPanels(path string) (float64, error) {
	fm, err := mat.OpenBinary(path)
	if err != nil {
		return 0, err
	}
	defer fm.Close()
	buf := mat.NewDense(oocPanelRows, fm.Cols())
	var rates []float64
	for pass := 0; pass < 3; pass++ {
		var bytes int64
		t := time.Now()
		for lo := 0; lo < fm.Rows(); lo += oocPanelRows {
			hi := min(lo+oocPanelRows, fm.Rows())
			nb, err := fm.ReadRows(buf.Slice(0, hi-lo, 0, fm.Cols()), lo, hi)
			if err != nil {
				return 0, err
			}
			bytes += nb
		}
		rates = append(rates, float64(bytes)/float64(time.Since(t).Nanoseconds()))
	}
	return median(rates), nil
}
