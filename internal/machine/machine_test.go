package machine

import (
	"runtime"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/pe"
)

func cfg16() Config {
	return Config{
		Net:     network.Config{K: 2, Stages: 4, Combining: true},
		Hashing: true,
	}
}

// TestFetchAddCounterAllPEs has every PE increment one shared counter; the
// final value must equal the PE count and every PE must see a distinct
// intermediate value (serialization principle end to end).
func TestFetchAddCounterAllPEs(t *testing.T) {
	const counter = int64(1000)
	results := make([]int64, 16)
	m := SPMD(cfg16(), 16, func(ctx *pe.Ctx) {
		results[ctx.PE()] = ctx.FetchAdd(counter, 1)
	})
	m.MustRun(1_000_000)
	if got := m.ReadShared(counter); got != 16 {
		t.Fatalf("counter = %d, want 16", got)
	}
	seen := make(map[int64]bool)
	for p, v := range results {
		if v < 0 || v >= 16 || seen[v] {
			t.Fatalf("PE %d got ticket %d (dup or out of range)", p, v)
		}
		seen[v] = true
	}
}

// TestSelfScheduledVectorSum parallelizes a reduction with the paper's
// idioms: a fetch-and-add loop index for self-scheduling and a
// fetch-and-add accumulation of partial sums.
func TestSelfScheduledVectorSum(t *testing.T) {
	const (
		n       = 200
		vec     = int64(0)    // v[0..n)
		idx     = int64(5000) // shared loop index
		sumAddr = int64(5001)
	)
	m := SPMD(cfg16(), 8, func(ctx *pe.Ctx) {
		var local int64
		for {
			i := ctx.FetchAdd(idx, 1)
			if i >= n {
				break
			}
			local += ctx.Load(vec + i)
		}
		ctx.FetchAdd(sumAddr, local)
	})
	var want int64
	for i := int64(0); i < n; i++ {
		m.WriteShared(vec+i, i*3)
		want += i * 3
	}
	m.MustRun(5_000_000)
	if got := m.ReadShared(sumAddr); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestDeterminism runs the same program twice and requires identical
// cycle counts and statistics.
func TestDeterminism(t *testing.T) {
	run := func() (int64, Report) {
		m := SPMD(cfg16(), 16, func(ctx *pe.Ctx) {
			for i := 0; i < 10; i++ {
				ctx.FetchAdd(7, int64(ctx.PE()))
				ctx.Compute(3)
				ctx.Store(int64(100+ctx.PE()), int64(i))
			}
		})
		c := m.MustRun(1_000_000)
		return c, m.Report()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Fatalf("cycle counts differ: %d vs %d", c1, c2)
	}
	if r1 != r2 {
		t.Fatalf("reports differ:\n%v\nvs\n%v", r1, r2)
	}
}

// TestPrefetchReducesIdle compares a blocking-load loop against a
// software-pipelined (LoadAsync) loop; prefetch must cut idle time, the
// effect §4.2 relies on ("prefetching would mitigate the problem of
// large memory latency").
func TestPrefetchReducesIdle(t *testing.T) {
	const n = 128
	runIdle := func(prefetch bool) float64 {
		m := SPMD(cfg16(), 1, func(ctx *pe.Ctx) {
			var sum int64
			if prefetch {
				h := ctx.LoadAsync(0)
				for i := int64(1); i <= n; i++ {
					var next *pe.Handle
					if i < n {
						next = ctx.LoadAsync(i)
					}
					sum += h.Wait()
					ctx.Compute(4)
					h = next
				}
			} else {
				for i := int64(0); i < n; i++ {
					sum += ctx.Load(i)
					ctx.Compute(4)
				}
			}
			ctx.Store(9999, sum)
		})
		for i := int64(0); i < n; i++ {
			m.WriteShared(i, 1)
		}
		m.MustRun(5_000_000)
		if got := m.ReadShared(9999); got != n {
			t.Fatalf("sum = %d, want %d", got, n)
		}
		return m.Report().IdleFrac
	}
	blocking := runIdle(false)
	pipelined := runIdle(true)
	if pipelined >= blocking {
		t.Fatalf("prefetch idle %.3f >= blocking idle %.3f", pipelined, blocking)
	}
}

// TestOneOutstandingPerLocation checks the PNI pipelining restriction: a
// PE that issues two async requests to the same address must stall the
// second until the first completes, yet both complete correctly.
func TestOneOutstandingPerLocation(t *testing.T) {
	m := SPMD(cfg16(), 1, func(ctx *pe.Ctx) {
		h1 := ctx.FetchAddAsync(42, 1)
		h2 := ctx.FetchAddAsync(42, 1) // must wait for h1's slot
		ctx.Store(100, h1.Wait())
		ctx.Store(101, h2.Wait())
	})
	m.MustRun(1_000_000)
	v1, v2 := m.ReadShared(100), m.ReadShared(101)
	if v1 != 0 || v2 != 1 {
		t.Fatalf("tickets = %d, %d; want 0, 1 (in order)", v1, v2)
	}
	if m.ReadShared(42) != 2 {
		t.Fatalf("counter = %d, want 2", m.ReadShared(42))
	}
}

// TestHotSpotServedOnce checks combining end to end through the machine:
// all 16 PEs hammer one word; the MMs must serve far fewer than 16 ops.
func TestHotSpotServedOnce(t *testing.T) {
	m := SPMD(cfg16(), 16, func(ctx *pe.Ctx) {
		ctx.FetchAdd(7, 1)
	})
	m.MustRun(1_000_000)
	r := m.Report()
	if m.ReadShared(7) != 16 {
		t.Fatalf("counter = %d, want 16", m.ReadShared(7))
	}
	if r.Combines == 0 {
		t.Fatal("no combining on a pure hot spot")
	}
	if r.MMOpsServed >= 16 {
		t.Fatalf("MM served %d ops; combining ineffective", r.MMOpsServed)
	}
}

// TestFloatRoundTrip checks float64 values survive the IEEE-bits
// convention through simulated shared memory.
func TestFloatRoundTrip(t *testing.T) {
	m := SPMD(cfg16(), 2, func(ctx *pe.Ctx) {
		if ctx.PE() == 0 {
			ctx.StoreF(10, 3.25)
		} else {
			// Spin until PE 0's value lands (flag-free for test brevity).
			for ctx.LoadF(10) == 0 {
				ctx.Compute(1)
			}
			ctx.StoreF(11, ctx.LoadF(10)*2)
		}
	})
	m.MustRun(1_000_000)
	if got := m.ReadSharedF(11); got != 6.5 {
		t.Fatalf("value = %v, want 6.5", got)
	}
}

// TestReportColumns sanity-checks the Table 1 arithmetic.
func TestReportColumns(t *testing.T) {
	m := SPMD(cfg16(), 4, func(ctx *pe.Ctx) {
		ctx.Private(6)            // 6 instr, 6 local refs
		ctx.Load(int64(ctx.PE())) // 1 instr, 1 shared load + idle
		ctx.Store(int64(50), 1)   // 1 instr, 1 shared ref
		ctx.Compute(2)            // 2 instr
	})
	m.MustRun(1_000_000)
	r := m.Report()
	if r.Instructions != 4*10 {
		t.Fatalf("instructions = %d, want 40", r.Instructions)
	}
	if r.SharedRefs != 8 || r.SharedLoads != 4 {
		t.Fatalf("shared refs/loads = %d/%d, want 8/4", r.SharedRefs, r.SharedLoads)
	}
	if r.MemRefPerInstr <= 0 || r.SharedRefPerInstr <= 0 {
		t.Fatal("reference rates must be positive")
	}
	if r.AvgCMAccess < 4 {
		t.Fatalf("avg CM access %.2f implausibly low", r.AvgCMAccess)
	}
	if r.String() == "" {
		t.Fatal("report must render")
	}
}

// TestPartialPopulation runs fewer PEs than network ports.
func TestPartialPopulation(t *testing.T) {
	cfg := Config{Net: network.Config{K: 4, Stages: 3, Combining: true}, Hashing: true}
	m := SPMD(cfg, 48, func(ctx *pe.Ctx) {
		ctx.FetchAdd(0, 1)
	})
	if m.NumPE() != 48 {
		t.Fatalf("NumPE = %d", m.NumPE())
	}
	m.MustRun(1_000_000)
	if m.ReadShared(0) != 48 {
		t.Fatalf("counter = %d, want 48", m.ReadShared(0))
	}
}

// TestGoGuestPanicSurfacesFromStep: a Go guest runs inside its PE's Tick,
// so its panic unwinds through Step to whoever steps the machine, where a
// recover (a test's, or a served session's) sees the guest's own value.
func TestGoGuestPanicSurfacesFromStep(t *testing.T) {
	m := SPMD(cfg16(), 4, func(ctx *pe.Ctx) {
		ctx.FetchAdd(0, 1)
		if ctx.PE() == 2 {
			panic("guest bug")
		}
		ctx.Compute(3)
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		m.MustRun(1_000_000)
		return nil
	}()
	if got != "guest bug" {
		t.Fatalf("recovered %v, want the guest's panic value", got)
	}
}

// TestGoGuestRunsOnlyInsideTick: a guest's Go code runs only while its
// PE ticks, so plain Go state it writes may be read between Steps
// without synchronization (go test -race checks the claim).
func TestGoGuestRunsOnlyInsideTick(t *testing.T) {
	const n = 50
	count := 0
	m := SPMD(cfg16(), 1, func(ctx *pe.Ctx) {
		for i := 0; i < n; i++ {
			ctx.Compute(1)
			count++
		}
	})
	for !m.Done() {
		m.Step()
		seen := count
		runtime.Gosched()
		if count != seen {
			t.Fatalf("guest moved its counter %d -> %d between Steps", seen, count)
		}
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

// TestConfigValidate has one row per bound of Bounds, plus one the
// machine reads through from network.Bounds; New must panic on exactly
// the rows Validate refuses.
func TestConfigValidate(t *testing.T) {
	net := cfg16().Net
	tests := []struct {
		name    string
		config  Config
		wantErr bool
		errMsg  string
	}{
		{name: "valid, defaults", config: Config{Net: net}},
		{name: "valid, every field set", config: Config{Net: net, PEs: 16, MMLatency: 1, PECycle: 1, MaxOutstanding: 1}},
		{name: "network bound", config: Config{Net: network.Config{K: 1, Stages: 4}}, wantErr: true, errMsg: "k: switch radix k = 1, need >= 2"},
		{name: "negative pes", config: Config{Net: net, PEs: -1}, wantErr: true, errMsg: "pes: pes = -1, need >= 1"},
		{name: "pes beyond ports", config: Config{Net: net, PEs: 17}, wantErr: true, errMsg: "pes: 17 PEs but only 16 network ports (k^stages)"},
		{name: "no ports, default pes", config: Config{Net: network.Config{K: 2, Stages: 63}}, wantErr: true,
			errMsg: "stages: k^stages too large (k=2, stages=63, max 1048576 ports)"},
		{name: "negative mm_latency", config: Config{Net: net, MMLatency: -1}, wantErr: true, errMsg: "mm_latency: mm_latency = -1 network cycles, need >= 1"},
		{name: "negative pe_cycle", config: Config{Net: net, PECycle: -2}, wantErr: true, errMsg: "pe_cycle: pe_cycle = -2 network cycles, need >= 1"},
		{name: "negative max_outstanding", config: Config{Net: net, MaxOutstanding: -1}, wantErr: true, errMsg: "max_outstanding: max_outstanding = -1, need >= 1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.config.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if tt.wantErr && err.Error() != "config invalid: "+tt.errMsg {
				t.Errorf("Validate() = %q, want %q", err, "config invalid: "+tt.errMsg)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				New(tt.config, nil)
				return false
			}()
			if panicked != tt.wantErr {
				t.Errorf("New panicked = %v, want %v", panicked, tt.wantErr)
			}
		})
	}
}
