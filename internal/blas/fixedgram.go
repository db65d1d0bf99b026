package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// This file is the fixed-shape face of the fused kernel family: a Gram
// computation whose floating-point summation order is a function of the
// row count alone (GramFixed), and panel-granular entry points
// (GramPanelAcc, FusedPanelPivot, ReduceGramSlots) that let an
// out-of-core driver replay exactly the same order one resident panel at
// a time. The schedule helpers (FusedSlots, FusedSlotBounds,
// FusedBlockRows) export the slot/micro-block grid so callers outside
// this package can cut panels only at positions the in-core kernels
// would have visited anyway — the whole bit-identity story of
// internal/ooc rests on these boundaries (DESIGN.md §14).

// FusedBlockRows is the micro-block height of the fused streaming
// kernels. Out-of-core panel boundaries must fall on this grid (relative
// to their slot's lower bound) for the per-panel kernels to reproduce the
// in-core summation order bit for bit.
const FusedBlockRows = fusedBlockRows

// FusedSlots reports the fixed reduction fan-out the fused kernels use
// for an m-row pass — a function of m alone, never of the engine width.
func FusedSlots(m int) int { return fusedSlots(m) }

// FusedSlotBounds reports the half-open row range of slot si of slots
// over m rows, matching the partition the fused kernels use internally.
func FusedSlotBounds(m, slots, si int) (lo, hi int) {
	return fusedSlotBounds(m, slots, si)
}

// GramFixed computes the full symmetric Gram matrix W = AᵀA through the
// fixed-shape slot reduction of the fused kernel family: rows are
// partitioned into FusedSlots(m) slots, each slot accumulates with the
// register-tiled fused SYRK in ascending quad order, and the per-slot
// partials reduce into W in ascending slot index order. Every engine
// width therefore produces bit-identical W — unlike Gram, whose
// summation shape follows the width — making this the Gram of choice for
// paths that promise width determinism (the iterated pivoting loop, and
// the out-of-core driver that replays it panel by panel).
//
// Engines carrying a non-native compute backend delegate to Gram so the
// backend's accumulation semantics (e.g. mixed32's float32 Gram) are
// preserved; the fixed-shape guarantee holds on the native backend.
func GramFixed(e *parallel.Engine, w *mat.Dense, a *mat.Dense) {
	n := a.Cols
	if w.Rows != n || w.Cols != n {
		panic(fmt.Sprintf("blas: GramFixed W %d×%d, want %d×%d", w.Rows, w.Cols, n, n))
	}
	if backendFor(e) != nativeHandle {
		Gram(e, w, a)
		return
	}
	w.Zero()
	m := a.Rows
	if m == 0 || n == 0 {
		return
	}
	sp := trace.BackendRegion(trace.KernelSyrk, nativeHandle.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelSyrk, nativeHandle.traceID, int64(m)*int64(n)*int64(n+1))
	slots := fusedSlots(m)
	wk := e.Workers()
	if wk == 1 || slots == 1 || mulFlops(m, n, n) < gemmParallelFlops {
		// Sequential path: one reusable accumulator, reduced slot by slot
		// in ascending order — the exact summation shape of the parallel
		// path, so width 1 matches width k bit for bit.
		acc := mat.GetWorkspace(n, n, false)
		for si := 0; si < slots; si++ {
			lo, hi := fusedSlotBounds(m, slots, si)
			acc.Zero()
			fusedSyrkCols(a, lo, hi, 0, n, acc)
			addUpper(w, acc)
		}
		mat.PutWorkspace(acc)
		SymmetrizeFromUpper(w)
		return
	}
	// Parallel path: workers claim contiguous slot subranges with private
	// accumulators; the reduction walks slots in ascending index order
	// regardless of which worker filled them.
	accs := make([]*mat.Dense, slots)
	taskRanges := parallel.Split(slots, wk, 1)
	tasks := make([]func(), len(taskRanges))
	for ti, tr := range taskRanges {
		tasks[ti] = func() {
			for si := tr.Lo; si < tr.Hi; si++ {
				acc := mat.GetWorkspace(n, n, true)
				lo, hi := fusedSlotBounds(m, slots, si)
				fusedSyrkCols(a, lo, hi, 0, n, acc)
				accs[si] = acc
			}
		}
	}
	e.Do(tasks...)
	for _, acc := range accs {
		addUpper(w, acc)
		mat.PutWorkspace(acc)
	}
	SymmetrizeFromUpper(w)
}

// GramPanelAcc accumulates acc += PᵀP (upper triangle only) for a
// resident row panel P, in exactly the summation order GramFixed uses
// for the same rows: ascending 4-row quads anchored at the panel's first
// row, remainder rows last. Parallelism partitions the accumulator's
// output rows (at even row-pair boundaries), never the summation
// dimension, so the per-element accumulation order — and hence every bit
// of acc — is independent of the engine width.
//
// An out-of-core Gram sweep calls this once per panel with the panel's
// slot accumulator, then reduces the slot accumulators with
// ReduceGramSlots. Bit-identity with GramFixed requires the panel to
// start on its slot's FusedBlockRows grid (schedule contract above).
// Native kernels only: the caller is expected to have pinned the native
// backend (internal/ooc rejects others up front).
func GramPanelAcc(e *parallel.Engine, panel, acc *mat.Dense) {
	n := panel.Cols
	if acc.Rows != n || acc.Cols != n {
		panic(fmt.Sprintf("blas: GramPanelAcc acc %d×%d, want %d×%d", acc.Rows, acc.Cols, n, n))
	}
	if panel.Rows == 0 || n == 0 {
		return
	}
	sp := trace.BackendRegion(trace.KernelSyrk, nativeHandle.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelSyrk, nativeHandle.traceID,
		int64(panel.Rows)*int64(n)*int64(n+1))
	fusedSyrkColsParallel(e, panel, acc)
}

// FusedPanelPivot applies the fused permute→TRSM→Gram pass to one
// resident row panel: every row of the panel is column-gathered through
// perm (nil means identity), solved in place against the upper
// triangular R, and accumulated into acc += PᵀP (upper triangle). It is
// the panel-granular form of the native PermTrsmGram slot kernel: the
// micro-block grid anchors at the panel's first row, so a panel cut on
// its slot's FusedBlockRows grid reproduces the in-core pass bit for
// bit. The permute+TRSM stage parallelizes over micro-blocks (rows are
// independent); the Gram stage partitions accumulator output rows like
// GramPanelAcc. Native kernels only; the caller validates R (see
// PermTrsmGramFused) once per sweep, not per panel.
func FusedPanelPivot(e *parallel.Engine, panel *mat.Dense, perm mat.Perm, r, acc *mat.Dense) {
	rows, n := panel.Rows, panel.Cols
	checkTriangular(r, n, "FusedPanelPivot")
	if acc.Rows != n || acc.Cols != n {
		panic(fmt.Sprintf("blas: FusedPanelPivot acc %d×%d, want %d×%d", acc.Rows, acc.Cols, n, n))
	}
	if perm != nil && len(perm) != n {
		panic(fmt.Sprintf("blas: FusedPanelPivot perm length %d != cols %d", len(perm), n))
	}
	if rows == 0 || n == 0 {
		return
	}
	sp := trace.BackendRegion(trace.KernelFusedTrsmGram, nativeHandle.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelFusedTrsmGram, nativeHandle.traceID,
		int64(rows)*int64(n)*int64(n)+int64(rows)*int64(n)*int64(n+1))
	trace.AddBytesBackend(trace.KernelFusedTrsmGram, nativeHandle.traceID, 2*8*int64(rows)*int64(n))

	// Stage 1 — permute + TRSM, parallel over micro-blocks. Each block's
	// rows are gathered and solved exactly as fusedSlotRange would: the
	// quad grouping anchors at the block start, so the result per row is a
	// function of the grid alone, never of which worker ran the block.
	blocks := (rows + fusedBlockRows - 1) / fusedBlockRows
	e.For(blocks, 1, func(bLo, bHi int) {
		tmp := mat.GetWorkspace(1, n, false)
		for bi := bLo; bi < bHi; bi++ {
			q := bi * fusedBlockRows
			qhi := q + fusedBlockRows
			if qhi > rows {
				qhi = rows
			}
			if perm != nil {
				for i := q; i < qhi; i++ {
					row := panel.Data[i*panel.Stride : i*panel.Stride+n]
					copy(tmp.Data, row)
					for j, v := range perm {
						row[j] = tmp.Data[v]
					}
				}
			}
			fusedTrsmRange(panel, r, q, qhi)
		}
		mat.PutWorkspace(tmp)
	})

	// Stage 2 — Gram accumulation over the solved panel.
	fusedSyrkColsParallel(e, panel, acc)
}

// ReduceGramSlots reduces per-slot Gram accumulators into W in ascending
// slot order and symmetrizes — the tail of GramFixed, split out so an
// out-of-core sweep can run the accumulation panel by panel and close
// the reduction once per sweep.
func ReduceGramSlots(w *mat.Dense, accs []*mat.Dense) {
	w.Zero()
	for _, acc := range accs {
		addUpper(w, acc)
	}
	SymmetrizeFromUpper(w)
}

// fusedSyrkColsParallel partitions acc's output rows at even row-pair
// boundaries and runs fusedSyrkCols on each partition: every acc element
// still receives its updates in ascending summation-quad order, so the
// result is bit-identical for every partition — and therefore for every
// engine width.
func fusedSyrkColsParallel(e *parallel.Engine, b, acc *mat.Dense) {
	n := b.Cols
	pairs := (n + 1) / 2
	if e.Workers() == 1 || mulFlops(b.Rows, n, n) < gemmParallelFlops {
		fusedSyrkCols(b, 0, b.Rows, 0, n, acc)
		return
	}
	e.For(pairs, 1, func(pLo, pHi int) {
		iHi := 2 * pHi
		if iHi > n {
			iHi = n
		}
		fusedSyrkCols(b, 0, b.Rows, 2*pLo, iHi, acc)
	})
}

// fusedSyrkCols accumulates the Gram contribution of rows [lo, hi) of B
// into accumulator output rows [iLo, iHi) (upper triangle only):
// acc(i,j) += Σ_k B(k,i)·B(k,j) for iLo ≤ i < iHi, j ≥ i. The summation
// rows are consumed in ascending quads and, within a quad, each acc
// element receives one 4-term dot — the order is a function of (lo, hi)
// alone, so any engine width reproduces the same bits. Output rows are
// paired so the quad's four source rows are loaded once per two
// accumulator rows: 32 flops per 8 memory operations in the inner loop,
// versus 8 per 6 for the streaming syrkTile (which optimizes for DRAM
// traffic the fused pass has already eliminated). iLo must be even (a
// row-pair boundary); iHi is even or n. Restricting the output rows
// instead of the summation range is what lets callers parallelize
// without changing any element's accumulation order.
//
//repolint:hotpath
func fusedSyrkCols(b *mat.Dense, lo, hi, iLo, iHi int, acc *mat.Dense) {
	n := b.Cols
	k := lo
	for ; k+4 <= hi; k += 4 {
		r0 := b.Data[k*b.Stride : k*b.Stride+n]
		r1 := b.Data[(k+1)*b.Stride : (k+1)*b.Stride+n]
		r2 := b.Data[(k+2)*b.Stride : (k+2)*b.Stride+n]
		r3 := b.Data[(k+3)*b.Stride : (k+3)*b.Stride+n]
		i := iLo
		for ; i+2 <= iHi; i += 2 {
			di := acc.Data[i*acc.Stride : i*acc.Stride+n]
			di1 := acc.Data[(i+1)*acc.Stride : (i+1)*acc.Stride+n]
			v00, v10, v20, v30 := r0[i], r1[i], r2[i], r3[i]
			v01, v11, v21, v31 := r0[i+1], r1[i+1], r2[i+1], r3[i+1]
			di[i] += v00*v00 + v10*v10 + v20*v20 + v30*v30
			di[i+1] += v00*v01 + v10*v11 + v20*v21 + v30*v31
			di1[i+1] += v01*v01 + v11*v11 + v21*v21 + v31*v31
			j := i + 2
			if nv := avxSpan(j, n); nv > 0 {
				c := [8]float64{v00, v10, v20, v30, v01, v11, v21, v31}
				syrkPairAVX(&di[j], &di1[j], &r0[j], &r1[j], &r2[j], &r3[j], nv, &c)
				j += nv
			}
			for ; j < n; j++ {
				w0, w1, w2, w3 := r0[j], r1[j], r2[j], r3[j]
				di[j] += v00*w0 + v10*w1 + v20*w2 + v30*w3
				di1[j] += v01*w0 + v11*w1 + v21*w2 + v31*w3
			}
		}
		if i < iHi {
			di := acc.Data[i*acc.Stride : i*acc.Stride+n]
			v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
			for j := i; j < n; j++ {
				di[j] += v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
			}
		}
	}
	// Remainder summation rows: rank-1 accumulation.
	for ; k < hi; k++ {
		rk := b.Data[k*b.Stride : k*b.Stride+n]
		for i := iLo; i < iHi; i++ {
			v := rk[i]
			if v == 0 {
				continue
			}
			di := acc.Data[i*acc.Stride : i*acc.Stride+n]
			for j := i; j < n; j++ {
				di[j] += v * rk[j]
			}
		}
	}
}
