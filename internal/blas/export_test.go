package blas

// HaveAVX and SetAVX expose the AVX switch to the end-to-end tests in
// package blas_test, which drive the public entry points.
var HaveAVX = haveAVX

// SetAVX sets the AVX switch and returns a function restoring the
// previous setting.
func SetAVX(on bool) (restore func()) {
	old := useAVX
	useAVX = on
	return func() { useAVX = old }
}
