//go:build !amd64 || (cgoblas && cgo)

package blas

// Without amd64 assembly the pure-Go loops are the only path: useAVX is
// always false, so these stubs are never reached. That covers other
// architectures and the cgo build of this package (-tags cgoblas), since
// Go does not assemble Go assembly files in a package that uses cgo.
const haveAVX = false

func syrkPairAVX(d0, d1, w0, w1, w2, w3 *float64, n int, c *[8]float64) {
	panic("blas: AVX routine called without AVX support")
}

func trsmPairAVX(x0, x1, w0, w1, w2, w3 *float64, n int, c *[8]float64) {
	panic("blas: AVX routine called without AVX support")
}

func syrkRowAVX(d, w0, w1, w2, w3 *float64, n int, c *[4]float64) {
	panic("blas: AVX routine called without AVX support")
}

func trsmRank1AVX(x0, x1, x2, x3, r *float64, n int, v *[4]float64) {
	panic("blas: AVX routine called without AVX support")
}
