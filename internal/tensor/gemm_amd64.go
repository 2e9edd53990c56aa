package tensor

// haveAVX reports whether the CPU and OS support AVX (CPUID.1:ECX.AVX and
// OSXSAVE set, and XCR0 enabling the XMM and YMM state). It is fixed once at
// package init and selects the sgemm tile kernel for the life of the process.
var haveAVX = cpuHasAVX()

// cpuHasAVX is implemented in gemm_amd64.s.
func cpuHasAVX() bool

// sgemm4AVX accumulates columns [0, cols) of the four C rows starting at c
// against kb rows of B starting at b, both with row stride ld floats: for
// each kk in order, C row i's column j gains round(a[i·lda+kk] ·
// b[kk·ld+j]). a points at the tile's first A row, row stride lda floats.
// cols must be a multiple of 4. Implemented in gemm_amd64.s.
//
//go:noescape
func sgemm4AVX(a *float32, lda int, b, c *float32, kb, cols, ld int)

// axpy4AVX is axpy4 over all n columns: the AVX microkernel takes the first
// n&^3 columns and the portable loop the rest.
func axpy4AVX(r, n, k0, k1 int, a, b, c []float32, lda int) {
	cols := n &^ 3
	if cols > 0 {
		// The microkernel reads a[r*lda+k0 : (r+3)*lda+k1] and
		// b[k0*n : (k1-1)*n+cols] and writes c[r*n : (r+3)*n+cols]; index
		// the far ends so a bad shape panics here instead of touching memory
		// outside the slices.
		_ = a[(r+3)*lda+k1-1]
		_ = b[(k1-1)*n+cols-1]
		_ = c[(r+3)*n+cols-1]
		sgemm4AVX(&a[r*lda+k0], lda, &b[k0*n], &c[r*n], k1-k0, cols, n)
	}
	if cols < n {
		axpy4(r, cols, n, k0, k1, a, b, c, lda)
	}
}
