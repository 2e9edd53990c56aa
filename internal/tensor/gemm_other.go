//go:build !amd64

package tensor

// haveAVX is false off amd64: sgemm always runs the portable Go kernels.
const haveAVX = false

// axpy4AVX is never called: conv2DGEMM passes avx = haveAVX, false here, and
// the tests that pass true skip without AVX.
func axpy4AVX(r, n, k0, k1 int, a, b, c []float32, lda int) {
	panic("tensor: AVX sgemm kernel called on a non-amd64 build")
}
