package trace

import (
	"math"
	"runtime"
	"runtime/debug"
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
// move it. Each budget sits under 5 % above the count measured when Run
// began sizing the bank's table once for the writes a stable workload
// offers (44 and 45; 55 and 56 while the table doubled a dozen times, 529
// and 526 when a room that outgrew its three slab slots grew an array of
// its own, 1 482 and 1 310 with a Go map per module, 3 853 and 3 765 when
// every queue also grew its own array): an op that allocates per message
// again, a room that grows by append, a table that doubles its way up
// again, or a store that allocates per module fails here without a
// benchmark run. The profiled leg is the uniform op with a guest profiler
// built inside it, the traced leg the same with a request tracer at rate
// 1 instead, and the observed leg the net-observed op
// (BenchmarkNetObservedOp restates it): a recorder ring made once and
// reset per op, and per op a sampler every 64 cycles, a tracer at rate 1
// and a profiler. Their budgets sit under 5 % above 132, 116 and 290,
// counted at the same change (143, 127 and 301 before it; 618, 603 and 776
// before the network's rooms took chunked windows; 1 628, 5 007 and 6 190
// with a span and a hop array per span, a heatmap map per module and
// three maps per PE).
func TestRunAllocBudget(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}
	rec := obs.NewRecorder(1 << 16)
	for _, c := range []struct {
		name   string
		w      Workload
		attach func(*Workload)
		budget float64
	}{
		{"uniform", Workload{}, nil, 46},
		{"hotspot", Workload{HotFraction: 0.10, HotWord: 424242, LoadFrac: 0.5, StoreFrac: 0.2}, nil, 47},
		{"profiled", Workload{}, func(w *Workload) { w.Profiler = prof.New(prof.Config{PEs: 64}) }, 138},
		{"traced", Workload{}, func(w *Workload) { w.Tracer = reqtrace.New(reqtrace.Config{Rate: 1}) }, 121},
		{"observed", Workload{}, func(w *Workload) {
			rec.Reset()
			w.Probe = rec
			w.Sampler = obs.NewSampler(64)
			w.Tracer = reqtrace.New(reqtrace.Config{Rate: 1})
			w.Profiler = prof.New(prof.Config{PEs: 64})
		}, 304},
	} {
		w := c.w
		w.Rate, w.Hash, w.Seed = 0.20, true, 1001
		var r Result
		allocs := opObjects(func() {
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

// TestRunObjectsSeedStable holds the object count of the uniform and
// hot-spot ops of TestRunAllocBudget to its seed's share: run on seeds
// 1000 + 7i, i < 10 (the seeds of a bench-pairs run), no op may allocate
// more than 4 objects beyond the least. A count that follows the traffic a
// seed draws — a room that grows by append, one allocation per room that
// outgrows its window — spreads a benchmark's allocs_per_kcycle over more
// than its bound, so a change to it cannot be judged.
func TestRunObjectsSeedStable(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}
	for _, c := range []struct {
		name string
		w    Workload
	}{
		{"uniform", Workload{}},
		{"hotspot", Workload{HotFraction: 0.10, HotWord: 424242, LoadFrac: 0.5, StoreFrac: 0.2}},
	} {
		least, most := math.Inf(1), 0.0
		for i := range 10 {
			w := c.w
			w.Rate, w.Hash, w.Seed = 0.20, true, uint64(1000+7*i)
			allocs := opObjects(func() { Run(cfg, w, 200, 500) })
			least, most = min(least, allocs), max(most, allocs)
		}
		t.Logf("%s: %.0f to %.0f objects an op over ten seeds", c.name, least, most)
		if most > least+4 {
			t.Errorf("%s: %.0f to %.0f objects an op over ten seeds, a spread over 4", c.name, least, most)
		}
	}
}

// opObjects counts the objects one call of op allocates: the least of three
// runs with the collector off. A collection during a net op adds objects
// to it (two, now and then eight), and the runtime's own growth in a young
// process adds one to the odd run, never takes one away, so only then is
// the count the code's and the seed's alone.
func opObjects(op func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	least := math.Inf(1)
	for range 3 {
		least = min(least, testing.AllocsPerRun(1, op))
	}
	return least
}
