package sim

import (
	"fmt"
	"math"
	"sort"
)

// Counter accumulates a running sum of integer events.
type Counter struct {
	n int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the accumulated count.
func (c *Counter) Value() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates samples and reports count, mean, variance and extrema
// using Welford's numerically stable online algorithm.
type Mean struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Observe adds one sample.
func (m *Mean) Observe(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N reports the number of samples observed.
func (m *Mean) N() int64 { return m.n }

// Value reports the sample mean, or zero with no samples.
func (m *Mean) Value() float64 { return m.mean }

// Variance reports the unbiased sample variance.
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Stddev reports the sample standard deviation.
func (m *Mean) Stddev() float64 { return math.Sqrt(m.Variance()) }

// Min reports the smallest sample observed, or zero with no samples.
func (m *Mean) Min() float64 { return m.min }

// Max reports the largest sample observed, or zero with no samples.
func (m *Mean) Max() float64 { return m.max }

// Reset discards all samples.
func (m *Mean) Reset() { *m = Mean{} }

// String summarizes the accumulator.
func (m *Mean) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		m.n, m.Value(), m.Stddev(), m.min, m.max)
}

// Histogram counts integer-valued samples in unit-width buckets up to a
// cap; samples at or above the cap fall into an overflow bucket. It is
// used for queue-length and latency distributions.
type Histogram struct {
	buckets  []int64
	overflow int64
	n        int64
	sum      int64 // exact, overflow samples included
}

// NewHistogram returns a histogram with buckets [0, cap).
func NewHistogram(capValue int) *Histogram {
	if capValue < 1 {
		capValue = 1
	}
	//ultravet:ok hotalloc constructor: each histogram is built once by its owner, a machine, network or trace run at construction and a profiler lock word or sampler stage at first sight, never per cycle
	return &Histogram{buckets: make([]int64, capValue)}
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += v
	if v >= int64(len(h.buckets)) {
		h.overflow++
		return
	}
	h.buckets[v]++
}

// N reports the number of samples observed.
func (h *Histogram) N() int64 { return h.n }

// Mean reports the average of all samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Count reports the number of samples that fell in bucket v.
func (h *Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow reports the number of samples at or above the bucket cap.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Quantile reports the smallest bucket value q of the mass lies at or
// below, treating overflow as the cap value.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for v, c := range h.buckets {
		seen += c
		if seen >= target {
			return int64(v)
		}
	}
	return int64(len(h.buckets))
}

// Series is an append-only sequence of (x, y) points used to build the
// data series behind the paper's figures.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (x, y) sample in a Series.
type Point struct{ X, Y float64 }

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Sorted returns the points ordered by X without mutating the series.
func (s *Series) Sorted() []Point {
	out := make([]Point, len(s.Points))
	copy(out, s.Points)
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}
