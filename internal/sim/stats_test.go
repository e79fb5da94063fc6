package sim

import "testing"

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(16)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Mean() != 0 {
		t.Errorf("empty histogram Mean = %v, want 0", h.Mean())
	}
}

func TestHistogramAllOverflow(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	if h.Overflow() != 10 {
		t.Fatalf("Overflow = %d, want 10", h.Overflow())
	}
	// With all the mass beyond the cap, every quantile is the cap value —
	// a lower bound, which is why reports must surface Overflow.
	if got := h.Quantile(0.5); got != 8 {
		t.Errorf("Quantile(0.5) = %d, want cap 8", got)
	}
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("Quantile(0.99) = %d, want cap 8", got)
	}
	if h.N() != 10 {
		t.Errorf("N = %d, want 10", h.N())
	}
}

// TestHistogramOverflowMeanExact: samples at or past the cap count in
// overflow, not in a bucket, and the mean stays the exact mean of every
// sample observed: overflow samples add their true value, not the cap.
func TestHistogramOverflowMeanExact(t *testing.T) {
	h := NewHistogram(4)
	samples := []int64{1, 2, 100, 7, 3, 1000, 2}
	var want int64
	for _, v := range samples {
		h.Observe(v)
		want += v
	}
	if h.N() != int64(len(samples)) {
		t.Fatalf("N = %d, want %d", h.N(), len(samples))
	}
	if got, wantMean := h.Mean(), float64(want)/float64(len(samples)); got != wantMean {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
	if h.Overflow() != 3 {
		t.Errorf("Overflow = %d, want 3", h.Overflow())
	}
	if h.Count(1) != 1 || h.Count(2) != 2 || h.Count(3) != 1 || h.Count(7) != 0 {
		t.Errorf("counts 1..3 = %d %d %d, Count(7) = %d; want 1 2 1, 0", h.Count(1), h.Count(2), h.Count(3), h.Count(7))
	}
}
