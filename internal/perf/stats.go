package perf

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the value is one unlucky request, not a tail.
const minBeyond = 10

// tailCandidates are the tail percentiles tried, highest first.
var tailCandidates = []float64{99, 95, 90}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, refusing
// (ok = false) when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

// tail returns the highest candidate percentile of xs that the sample
// supports, or ok = false when even the lowest is refused.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailCandidates {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// quartiles returns the first and third quartile of xs with Python's
// statistics.quantiles(xs, n=4) default ("exclusive") method, the rule
// the benchmark's spreads are judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}
