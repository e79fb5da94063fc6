package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is the five figures printed beside every host-time metric.
type summary struct {
	N                   int
	Min, Q1, Median, Q3 float64
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		nan := math.NaN()
		return summary{Min: nan, Q1: nan, Median: nan, Q3: nan}
	}
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.50),
		Q3:     quantile(s, 0.75),
	}
}

// spread is the interquartile range as a share of the median — the
// figure every bound in BENCHMARK.json is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// tailLevels are the percentiles a tail may be reported at, highest
// first, in per mille so that the sample count beyond one is exact.
var tailLevels = []int{999, 990, 950, 900, 750}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean something.
const tailSamples = 10

// tailLevel returns the highest level in tailLevels that leaves at
// least tailSamples of n samples beyond it, as a fraction, or 0 when
// even the lowest does not (fewer than 40 samples).
func tailLevel(n int) float64 {
	for _, pm := range tailLevels {
		if n*(1000-pm)/1000 >= tailSamples {
			return float64(pm) / 1000
		}
	}
	return 0
}

// percentile returns the p-quantile of values (unsorted).
func percentile(values []float64, p float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, p)
}
