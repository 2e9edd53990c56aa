package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchInput(c, h, w int) *Tensor {
	rng := rand.New(rand.NewSource(1))
	t := New(c, h, w)
	for i := range t.Data() {
		t.Data()[i] = rng.Float32()
	}
	return t
}

func BenchmarkConv2D3x3(b *testing.B) {
	in := benchInput(16, 32, 32)
	spec := Conv2DSpec{InChannels: 16, OutChannels: 32, Kernel: 3, Stride: 1, Pad: 1}
	w := make([]float32, spec.WeightCount())
	bias := make([]float32, spec.OutChannels)
	b.SetBytes(int64(in.NumElements() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(in, spec, w, bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConv2D1x1(b *testing.B) {
	in := benchInput(64, 16, 16)
	spec := Conv2DSpec{InChannels: 64, OutChannels: 64, Kernel: 1, Stride: 1}
	w := make([]float32, spec.WeightCount())
	bias := make([]float32, spec.OutChannels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(in, spec, w, bias); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSgemm times both 4-row tile kernels on the GEMM shapes (m×n×k =
// out channels × output pixels × in channels·K·K) of tiny-model convolutions,
// from a wide early layer down to tiny-resnet50's conv5 at n = 4, and reports
// GFLOP/s (2·m·n·k per call).
func BenchmarkSgemm(b *testing.B) {
	for _, s := range []struct{ m, n, k int }{
		{8, 4096, 27}, {8, 4096, 72}, {16, 1024, 147}, {32, 64, 432},
		{32, 16, 288}, {128, 4, 32}, {32, 4, 288},
	} {
		rng := rand.New(rand.NewSource(1))
		a := make([]float32, s.m*s.k)
		bm := make([]float32, s.k*s.n)
		for i := range a {
			a[i] = rng.Float32()
		}
		for i := range bm {
			bm[i] = rng.Float32()
		}
		bias := make([]float32, s.m)
		c := make([]float32, s.m*s.n)
		for _, kern := range []struct {
			name string
			avx  bool
		}{{"simd", true}, {"go", false}} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.n, s.k, kern.name), func(b *testing.B) {
				if kern.avx && !haveAVX {
					b.Skip("CPU has no AVX")
				}
				for i := 0; i < b.N; i++ {
					sgemm(kern.avx, s.m, s.n, s.k, a, bm, bias, c)
				}
				b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkMaxPool2D(b *testing.B) {
	in := benchInput(32, 32, 32)
	spec := PoolSpec{Kernel: 2, Stride: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxPool2D(in, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatVec(b *testing.B) {
	const rows, cols = 256, 2048
	w := make([]float32, rows*cols)
	x := make([]float32, cols)
	bias := make([]float32, rows)
	b.SetBytes(int64(rows * cols * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatVec(w, rows, cols, x, bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	in := benchInput(3, 64, 64)
	b.SetBytes(in.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := Encode(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
