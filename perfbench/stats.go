package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted samples and how
// many samples lie beyond it.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// tail is the percentile a sample supports: the highest of the candidate
// percentiles with at least minTail samples beyond it.
type tail struct {
	Q      float64
	Value  float64
	N      int
	Beyond int
	OK     bool
}

var tailCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// pickTail reports the highest candidate percentile of samples that has at
// least minTail samples beyond it, with the sample count. OK is false when
// not even the median has that many.
func pickTail(samples []float64) tail {
	sorted := sortedCopy(samples)
	for _, q := range tailCandidates {
		v, beyond := quantile(sorted, q)
		if beyond >= minTail {
			return tail{Q: q, Value: v, N: len(sorted), Beyond: beyond, OK: true}
		}
	}
	return tail{N: len(sorted)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
