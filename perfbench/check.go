package main

import (
	"fmt"
	"math"
	"slices"

	"repro/mat"
	"repro/metrics"
)

// accuracyTol bounds the warm-up factorization's residual and
// orthogonality: both sit at a few ulps times √n for Ite-CholQR-CP.
const accuracyTol = 1e-13

// fact is the part of a factorization the checks compare, plus Q as
// row blocks (one per dist rank) for the accuracy check; the streaming
// out-of-core path leaves q nil and writes Q to a file instead.
type fact struct {
	r     *mat.Dense
	perm  mat.Perm
	iters int
	q     []*mat.Dense
}

// sameBits reports whether two dense matrices hold bit-identical values.
func sameBits(a, b *mat.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		rb := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// sameFact reports how got differs from the reference, or "" when R,
// the pivots and the iteration count are all identical.
func sameFact(got, ref fact) string {
	switch {
	case !sameBits(got.r, ref.r):
		return "R differs"
	case !slices.Equal(got.perm, ref.perm):
		return "pivots differ"
	case got.iters != ref.iters:
		return fmt.Sprintf("%d iterations, want %d", got.iters, ref.iters)
	}
	return ""
}

// stack joins row blocks into one matrix.
func stack(blocks []*mat.Dense) *mat.Dense {
	if len(blocks) == 1 {
		return blocks[0]
	}
	rows := 0
	for _, b := range blocks {
		rows += b.Rows
	}
	q := mat.NewDense(rows, blocks[0].Cols)
	row := 0
	for _, b := range blocks {
		q.RowSlice(row, row+b.Rows).Copy(b)
		row += b.Rows
	}
	return q
}

// checkAccuracy checks A·P = Q·R to accuracyTol in residual and
// orthogonality.
func checkAccuracy(a, q *mat.Dense, f fact) error {
	res := metrics.Residual(a, q, f.r, f.perm)
	orth := metrics.Orthogonality(q)
	if !(res <= accuracyTol) || !(orth <= accuracyTol) {
		return fmt.Errorf("residual %.3g, orthogonality %.3g, want both ≤ %g", res, orth, accuracyTol)
	}
	return nil
}
