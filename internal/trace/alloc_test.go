package trace

import (
	"testing"

	"ultracomputer/internal/network"
)

// TestRunAllocBudget holds one op of the repository benchmark's net-uniform
// and net-hotspot workloads (bench/net.go; BenchmarkNetUniformOp and
// BenchmarkNetHotspotOp restate it) to an object budget: Run on 64 ports
// (k = 2, six stages, combining and hashing on), every PE offering p =
// 0.20, 200 warm-up + 500 measured cycles, uniform and with 10 % of the
// references on one hot word as 50 % loads, 20 % stores and 30 %
// fetch-and-adds. An object count is fixed by the seed, so no host can
// move it. Each budget sits under 5 % above the count measured when the
// bank began keeping every module's words in one table (529 and 526; 1 482
// and 1 310 with a Go map per module, 3 853 and 3 765 when every queue
// also grew its own array): an op that allocates per message again, a
// queue that stops starting in its slab, or a store that allocates per
// module fails here without a benchmark run.
func TestRunAllocBudget(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}
	for _, c := range []struct {
		name   string
		w      Workload
		budget float64
	}{
		{"uniform", Workload{}, 555},
		{"hotspot", Workload{HotFraction: 0.10, HotWord: 424242, LoadFrac: 0.5, StoreFrac: 0.2}, 552},
	} {
		w := c.w
		w.Rate, w.Hash, w.Seed = 0.20, true, 1001
		var r Result
		allocs := testing.AllocsPerRun(2, func() { r = Run(cfg, w, 200, 500) })
		t.Logf("%s: %.0f objects an op (budget %.0f), %d served", c.name, allocs, c.budget, r.Served)
		if r.Served == 0 {
			t.Fatalf("%s: no traffic flowed: %v", c.name, r)
		}
		if allocs > c.budget {
			t.Errorf("%s: %.0f objects an op, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
