package main

import (
	"math"
	"slices"
)

func sorted(x []float64) []float64 {
	s := slices.Clone(x)
	slices.Sort(s)
	return s
}

// median of x (mean of the two middle values for an even count); 0 if empty.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sorted(x)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of x: the smallest
// sample with at least q of the samples at or below it.
func percentile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sorted(x)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(x, n=4) does (exclusive method), so spreads printed
// here equal the ones the acceptance check computes.
func quartiles(x []float64) (q1, q3 float64) {
	s := sorted(x)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(x []float64) float64 {
	m := median(x)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(x)
	return (q3 - q1) / math.Abs(m)
}

// timedMetrics reduces the operations of one measured window to the timed
// end-to-end metrics: the median and the nearest-rank 95th percentile of
// every operation's latency over the whole window, beside the throughput the
// caller computed. The note states the sample count, so a reader can tell a
// percentile with hundreds of samples beyond it (serve_tree1) from one that
// is the maximum of a few dozen builds.
func timedMetrics(e *env, latMS []float64, rowsPerS float64) map[string]float64 {
	s := sorted(latMS)
	p50, p95 := median(s), percentile(s, 0.95)
	e.note("%d operations; latency ms: min %.6g, p50 %.6g, p95 %.6g, max %.6g", len(s), s[0], p50, p95, s[len(s)-1])
	return map[string]float64{"rows_per_s": rowsPerS, "latency_p50_ms": p50, "latency_p95_ms": p95}
}
