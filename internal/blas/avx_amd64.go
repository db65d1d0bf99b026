//go:build amd64 && !(cgoblas && cgo)

package blas

// haveAVX reports whether the CPU and the OS support 256-bit AVX: CPUID
// leaf 1 advertises AVX (ECX bit 28) and OSXSAVE (bit 27), and XCR0 shows
// the OS saves both the SSE and the AVX register state (bits 1 and 2).
var haveAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	ecx := cpuid1ECX()
	return ecx&osxsave != 0 && ecx&avx != 0 && xgetbv0()&6 == 6
}

// Implemented in avx_amd64.s; see there for the exact per-lane formulas.
// n is a positive multiple of 4.

func cpuid1ECX() uint32

func xgetbv0() uint32

//go:noescape
func syrkPairAVX(d0, d1, w0, w1, w2, w3 *float64, n int, c *[8]float64)

//go:noescape
func trsmPairAVX(x0, x1, w0, w1, w2, w3 *float64, n int, c *[8]float64)

//go:noescape
func syrkRowAVX(d, w0, w1, w2, w3 *float64, n int, c *[4]float64)

//go:noescape
func trsmRank1AVX(x0, x1, x2, x3, r *float64, n int, v *[4]float64)
