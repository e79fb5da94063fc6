package main

import (
	"math"
	"testing"
)

func TestQuantileAndSummary(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Min != 1 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 {
		t.Errorf("summarize(1..5) = %+v", s)
	}
	if got := s.spread(); got != 2.0/3 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	// Even count: the median interpolates between the middle two.
	if got := summarize([]float64{1, 2, 3, 10}).Median; got != 2.5 {
		t.Errorf("median of 1,2,3,10 = %v, want 2.5", got)
	}
	if got := percentile([]float64{10, 20, 30, 40, 50}, 0.95); math.Abs(got-48) > 1e-9 {
		t.Errorf("p95 of 10..50 = %v, want 48", got)
	}
	if got := summarize([]float64{7}); got.Min != 7 || got.Q1 != 7 || got.Q3 != 7 {
		t.Errorf("summarize(single) = %+v", got)
	}
	if got := summarize(nil); got.N != 0 || !math.IsNaN(got.Median) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

// The tail percentile is the highest with at least ten samples beyond
// it: p95 from 200 ops on, and lower below that.
func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "host_cost_per_cycle", Better: "lower", Bound: 0.10}
	tight := func(m float64) side {
		return side{summary: summary{N: 5, Q1: m * 0.99, Median: m, Q3: m * 1.01}, lo: m * 0.98, hi: m * 1.02}
	}
	wide := func(m float64) side {
		return side{summary: summary{N: 5, Q1: m * 0.9, Median: m, Q3: m * 1.1}, lo: m * 0.8, hi: m * 1.2}
	}
	for _, c := range []struct {
		name     string
		old, new side
		want     string
	}{
		{"within the bound", tight(100), tight(105), "same"},
		{"slower by more than the bound", tight(100), tight(115), "worse"},
		{"faster by more than the bound", tight(100), tight(80), "better"},
		{"wide and overlapping", wide(100), wide(115), "unresolved"},
		{"wide but disjoint", wide(100), wide(200), "worse"},
	} {
		if got, _ := verdict(d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	if got, _ := verdict(up, tight(100), tight(80)); got != "worse" {
		t.Errorf("higher-is-better metric that fell 20%%: verdict = %s, want worse", got)
	}
}
