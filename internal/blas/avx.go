package blas

// useAVX routes the four hot inner loops — the fused SYRK row pair
// (fusedSyrkCols), the fused TRSM rank-4 update (fusedTrsmRange), the
// streaming TRSM rank-1 update (trsmRightRange) and the packed SYRK row
// (syrkTile) — through the AVX routines of avx_amd64.s. The routines
// perform each lane's multiplies and adds in the scalar loop's order and
// never fuse them, so either setting produces identical bits; the switch
// exists only so tests can compare the two paths. It is set once from
// CPU detection (always false off amd64).
var useAVX = haveAVX

// avxSpan returns how many of the n-j trailing elements from j the AVX
// routines cover: the largest multiple of 4, or 0 when they are off. The
// scalar loop finishes the rest.
func avxSpan(j, n int) int {
	if !useAVX {
		return 0
	}
	return (n - j) &^ 3
}
