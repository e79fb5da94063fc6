package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n, buckets = 100000, 10
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 4*math.Sqrt(n/buckets) {
			t.Errorf("bucket %d count %d deviates too far from %d", i, c, n/buckets)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	var m Mean
	for i := 0; i < 50000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		m.Observe(f)
	}
	if math.Abs(m.Value()-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", m.Value())
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestMeanAccumulator(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d, want 8", m.N())
	}
	if math.Abs(m.Value()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", m.Value())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(m.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", m.Variance(), 32.0/7.0)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", m.Min(), m.Max())
	}
}

func TestMeanMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		var sum float64
		for _, x := range xs {
			// Constrain magnitude to keep the naive sum well conditioned.
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				x = 0
			}
			m.Observe(x)
			sum += x
		}
		if len(xs) == 0 {
			return m.N() == 0
		}
		want := sum / float64(len(xs))
		return math.Abs(m.Value()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for i := int64(0); i < 20; i++ {
		h.Observe(i % 12) // values 10, 11 overflow
	}
	if h.N() != 20 {
		t.Fatalf("N = %d, want 20", h.N())
	}
	if h.Overflow() != 2 { // samples 10 and 11
		t.Fatalf("overflow = %d, want 2", h.Overflow())
	}
	if h.Count(3) != 2 {
		t.Fatalf("Count(3) = %d, want 2", h.Count(3))
	}
	if h.Count(-1) != 0 || h.Count(100) != 0 {
		t.Fatal("out-of-range Count must be zero")
	}
	h.Observe(-5)
	if h.Count(0) != 3 { // two zeros plus clamped -5
		t.Fatalf("Count(0) = %d, want 3", h.Count(0))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(100)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v - 1) // 0..99 uniformly
	}
	if q := h.Quantile(0.5); q != 49 {
		t.Fatalf("median = %d, want 49", q)
	}
	if q := h.Quantile(0.99); q != 98 {
		t.Fatalf("p99 = %d, want 98", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(10)
	b := NewHistogram(10)
	for v := int64(0); v < 5; v++ {
		a.Observe(v)
		b.Observe(v + 3) // 3..7
	}
	b.Observe(50) // overflow in b
	a.Merge(b)
	if a.N() != 11 {
		t.Fatalf("merged N = %d, want 11", a.N())
	}
	if a.Count(3) != 2 || a.Count(4) != 2 || a.Count(7) != 1 {
		t.Fatalf("merged counts wrong: %d %d %d", a.Count(3), a.Count(4), a.Count(7))
	}
	if a.Overflow() != 1 {
		t.Fatalf("merged overflow = %d, want 1", a.Overflow())
	}
	a.Merge(nil) // no-op
	if a.N() != 11 {
		t.Fatal("nil merge changed the histogram")
	}
}

func TestSeriesSorted(t *testing.T) {
	var s Series
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	pts := s.Sorted()
	if pts[0].X != 1 || pts[1].X != 2 || pts[2].X != 3 {
		t.Fatalf("Sorted = %v", pts)
	}
	// Original order preserved.
	if s.Points[0].X != 3 {
		t.Fatal("Sorted mutated the series")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}
