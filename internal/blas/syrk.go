package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// syrkJBlock is the column-tile width of the wide-n SYRK path: the live
// accumulator segment per row quad is at most syrkJBlock doubles, so it
// stays in L1 while the quad streams. Narrow problems (n ≤ syrkJBlock)
// keep the untiled kernel, whose whole accumulator row already fits.
const syrkJBlock = 256

// SyrkUpperTrans computes the upper triangle of C = alpha·AᵀA + beta·C for
// symmetric C (n×n) and A (m×n). Elements strictly below the diagonal of C
// are left untouched. Validation, beta scaling, and trace attribution run
// here; the accumulation dispatches to the compute backend carried by the
// engine (nil or unlabeled engines use the native backend, whose
// summation over the long dimension m is split across pool workers with
// pooled private accumulators, exactly mirroring how the distributed
// algorithm forms local Gram blocks before the Allreduce).
func SyrkUpperTrans(e *parallel.Engine, alpha float64, a *mat.Dense, beta float64, c *mat.Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("blas: SyrkUpperTrans C %d×%d, want %d×%d", c.Rows, c.Cols, n, n))
	}
	for i := 0; i < n; i++ {
		row := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for j := i; j < n; j++ {
			row[j] *= beta
		}
	}
	if alpha == 0 || a.Rows == 0 || n == 0 {
		return
	}
	bk := backendFor(e)
	sp := trace.BackendRegion(trace.KernelSyrk, bk.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelSyrk, bk.traceID, int64(a.Rows)*int64(n)*int64(n+1))
	bk.impl.SyrkUpperAcc(e, alpha, a, c)
}

// SyrkUpperAcc is the native upper(C) += alpha·AᵀA accumulation.
func (nativeBackend) SyrkUpperAcc(e *parallel.Engine, alpha float64, a, c *mat.Dense) {
	n := a.Cols
	w := e.Workers()
	flops := mulFlops(a.Rows, n, n) // ≈ m·n²
	if flops < gemmParallelFlops || w == 1 {
		syrkRange(alpha, a, 0, a.Rows, c)
		return
	}
	minChunk := gemmParallelFlops / (mulFlops(n, n) + 1)
	ranges := parallel.Split(a.Rows, w, minChunk+1)
	if len(ranges) <= 1 {
		syrkRange(alpha, a, 0, a.Rows, c)
		return
	}
	bufs := make([]*mat.Dense, len(ranges))
	tasks := make([]func(), len(ranges))
	for bi, r := range ranges {
		tasks[bi] = func() {
			buf := mat.GetWorkspace(n, n, true)
			syrkRange(alpha, a, r.Lo, r.Hi, buf)
			bufs[bi] = buf
		}
	}
	e.Do(tasks...)
	for _, buf := range bufs {
		for i := 0; i < n; i++ {
			crow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
			brow := buf.Data[i*buf.Stride : i*buf.Stride+buf.Cols]
			for j := i; j < n; j++ {
				crow[j] += brow[j]
			}
		}
		mat.PutWorkspace(buf)
	}
}

// syrkRange accumulates dst += alpha·A(lo:hi,:)ᵀ·A(lo:hi,:) (upper
// triangle only). Four rows of A are consumed per pass so each touched
// accumulator element amortizes four multiply-adds (register blocking);
// for wide n the columns are additionally tiled so the active accumulator
// segment stays cache resident.
func syrkRange(alpha float64, a *mat.Dense, lo, hi int, dst *mat.Dense) {
	n := a.Cols
	if n <= syrkJBlock {
		syrkTile(alpha, a, 0, n, lo, hi, dst)
		return
	}
	for j0 := 0; j0 < n; j0 += syrkJBlock {
		syrkTile(alpha, a, j0, min(j0+syrkJBlock, n), lo, hi, dst)
	}
}

// syrkTile accumulates the columns [j0, j1) of the upper triangle of
// dst += alpha·AᵀA over summation rows [lo, hi).
//
//repolint:hotpath
func syrkTile(alpha float64, a *mat.Dense, j0, j1, lo, hi int, dst *mat.Dense) {
	l := lo
	for ; l+4 <= hi; l += 4 {
		r0 := a.Data[l*a.Stride : l*a.Stride+j1]
		r1 := a.Data[(l+1)*a.Stride : (l+1)*a.Stride+j1]
		r2 := a.Data[(l+2)*a.Stride : (l+2)*a.Stride+j1]
		r3 := a.Data[(l+3)*a.Stride : (l+3)*a.Stride+j1]
		for i := 0; i < j1; i++ {
			v0 := alpha * r0[i]
			v1 := alpha * r1[i]
			v2 := alpha * r2[i]
			v3 := alpha * r3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			drow := dst.Data[i*dst.Stride : i*dst.Stride+j1]
			j := max(i, j0)
			if nv := avxSpan(j, j1); nv > 0 {
				c := [4]float64{v0, v1, v2, v3}
				syrkRowAVX(&drow[j], &r0[j], &r1[j], &r2[j], &r3[j], nv, &c)
				j += nv
			}
			for ; j < j1; j++ {
				drow[j] += v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
			}
		}
	}
	for ; l < hi; l++ {
		arow := a.Data[l*a.Stride : l*a.Stride+j1]
		for i := 0; i < j1; i++ {
			av := alpha * arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Data[i*dst.Stride : i*dst.Stride+j1]
			for j := max(i, j0); j < j1; j++ {
				drow[j] += av * arow[j]
			}
		}
	}
}

// Gram computes the full symmetric Gram matrix W = AᵀA: the upper triangle
// via SyrkUpperTrans and the lower triangle by mirroring. This is the
// kernel on line 1 of CholQR (Algorithm 2) and line 3 of Ite-CholQR-CP
// (Algorithm 4).
func Gram(e *parallel.Engine, w *mat.Dense, a *mat.Dense) {
	SyrkUpperTrans(e, 1, a, 0, w)
	SymmetrizeFromUpper(w)
}

// SymmetrizeFromUpper copies the strict upper triangle of w onto the strict
// lower triangle.
func SymmetrizeFromUpper(w *mat.Dense) {
	if w.Rows != w.Cols {
		panic(fmt.Sprintf("blas: SymmetrizeFromUpper on %d×%d", w.Rows, w.Cols))
	}
	for i := 0; i < w.Rows; i++ {
		for j := i + 1; j < w.Cols; j++ {
			w.Data[j*w.Stride+i] = w.Data[i*w.Stride+j]
		}
	}
}
