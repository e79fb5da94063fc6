package trace

import (
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
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
// module fails here without a benchmark run. The profiled leg is the
// uniform op with a guest profiler built inside it, the traced leg the
// same with a request tracer at rate 1 instead, and the observed leg the
// net-observed op (BenchmarkNetObservedOp restates it): a recorder ring
// made once and reset per op, and per op a sampler every 64 cycles, a
// tracer at rate 1 and a profiler. Their budgets sit under 5 % above 618,
// 603 and 776, counted when the tracer began carving spans and hop room
// from chunks and the profiler kept one heatmap and one map of each PE
// fact, keyed by PE (1 628, 5 007 and 6 190 with a span and a hop array
// per span, a heatmap map per module and three maps per PE).
func TestRunAllocBudget(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}
	rec := obs.NewRecorder(1 << 16)
	for _, c := range []struct {
		name   string
		w      Workload
		attach func(*Workload)
		budget float64
	}{
		{"uniform", Workload{}, nil, 555},
		{"hotspot", Workload{HotFraction: 0.10, HotWord: 424242, LoadFrac: 0.5, StoreFrac: 0.2}, nil, 552},
		{"profiled", Workload{}, func(w *Workload) { w.Profiler = prof.New(prof.Config{PEs: 64}) }, 648},
		{"traced", Workload{}, func(w *Workload) { w.Tracer = reqtrace.New(reqtrace.Config{Rate: 1}) }, 633},
		{"observed", Workload{}, func(w *Workload) {
			rec.Reset()
			w.Probe = rec
			w.Sampler = obs.NewSampler(64)
			w.Tracer = reqtrace.New(reqtrace.Config{Rate: 1})
			w.Profiler = prof.New(prof.Config{PEs: 64})
		}, 814},
	} {
		w := c.w
		w.Rate, w.Hash, w.Seed = 0.20, true, 1001
		var r Result
		allocs := testing.AllocsPerRun(2, func() {
			if c.attach != nil {
				c.attach(&w)
			}
			r = Run(cfg, w, 200, 500)
		})
		t.Logf("%s: %.0f objects an op (budget %.0f), %d served", c.name, allocs, c.budget, r.Served)
		if r.Served == 0 {
			t.Fatalf("%s: no traffic flowed: %v", c.name, r)
		}
		if allocs > c.budget {
			t.Errorf("%s: %.0f objects an op, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
