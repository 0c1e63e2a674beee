package kernel_test

import (
	"testing"

	"partree/internal/kernel"
)

// benchRows is a root-sized node: the tabulate kernel's largest inputs.
const benchRows = 1 << 20

// BenchmarkKernelTabulate measures the statistics kernel on a 1M-row node
// with pooled buffers and a prebuilt spec; run with -benchmem to see that
// the steady-state loop is allocation-free.
func BenchmarkKernelTabulate(b *testing.B) {
	sp, idx := buildSpec(benchRows, 2024)
	flat := kernel.GetInt64(sp.StatsLen())
	defer kernel.PutInt64(flat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(flat)
		kernel.TabulateInto(flat, idx, sp)
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkKernelTabulateCat isolates the single-histogram kernel
// (criteria.HistFor's engine) at per-node sizes; with pooled buffers the
// steady-state loop is allocation-free.
func BenchmarkKernelTabulateCat(b *testing.B) {
	const n, m, c = 100000, 20, 2
	r := lcg(5)
	values := make([]int32, n)
	classes := make([]int32, n)
	idx := make([]int32, n)
	for i := 0; i < n; i++ {
		values[i] = r.value(m)
		classes[i] = r.class(c)
		idx[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := kernel.GetInt64(m * c)
		kernel.TabulateCat(counts, values, classes, idx, c)
		kernel.PutInt64(counts)
	}
}
