package machine

import (
	"math"
	"runtime"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/pe"
)

// TestStepSteadyStateZeroAlloc is the dynamic counterpart of the
// hotalloc analyzer: once the lazily-built stepper, phase closures and
// scratch buffers exist, Machine.Step must not allocate at all. The
// guests run an endless fetch-and-add loop so the network, combining
// queues, memory modules and reply paths all stay busy; probes and
// samplers are off (they buffer and box by design, see probegate).
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	prog := isa.MustAssemble(`
        li   r1, 100
        li   r2, 1
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        jmp  loop
`)
	const n = 8
	cores := make([]pe.Core, n)
	for i := range cores {
		cores[i] = isa.NewCore(prog, 64)
	}
	cfg := Config{
		Net:     network.Config{K: 2, Stages: 4, Combining: true},
		Hashing: true,
		PEs:     n,
	}
	m := New(cfg, cores)

	// Warm up past one-time construction and scratch-buffer growth:
	// first Step builds the stepper, and the per-PE collect buffers and
	// in-flight maps take a few hundred cycles to reach capacity.
	for i := 0; i < 2000; i++ {
		m.Step()
	}

	if avg := testing.AllocsPerRun(500, m.Step); avg != 0 {
		t.Fatalf("Machine.Step allocates %.2f times per cycle in steady state, want 0", avg)
	}
}

// TestStepZeroAllocDrainedIdle is the same guard at the other end of the
// load range: every PE halted, the network drained, every activity flag
// clear. Step then skips every link, module and PE buffer, and the skip
// paths must not allocate either.
func TestStepZeroAllocDrainedIdle(t *testing.T) {
	prog := isa.MustAssemble(`
        li   r1, 100
        li   r2, 1
        faa  r3, 0(r1), r2
        faa  r3, 0(r1), r2
        halt
`)
	const n = 8
	cores := make([]pe.Core, n)
	for i := range cores {
		cores[i] = isa.NewCore(prog, 64)
	}
	cfg := Config{
		Net:     network.Config{K: 2, Stages: 4, Copies: 2, Combining: true},
		Hashing: true,
		PEs:     n,
	}
	m := New(cfg, cores)
	m.MustRun(10_000)
	if got := m.ReadShared(100); got != 2*n {
		t.Fatalf("counter = %d, want %d", got, 2*n)
	}

	if avg := testing.AllocsPerRun(500, m.Step); avg != 0 {
		t.Fatalf("Machine.Step on a drained machine allocates %.2f times per cycle, want 0", avg)
	}
	if !m.Done() {
		t.Fatal("stepping a drained machine woke it up")
	}
}

// TestStepZeroAllocTracerDisabled pins the request tracer's
// zero-overhead-when-off guarantee: a tracer attached at sampling rate 0
// stamps no requests, so every hop-record site falls through its
// nil-context fast path (one integer compare) and Step stays
// allocation-free — the tracegate analyzer is the static half of this
// contract.
func TestStepZeroAllocTracerDisabled(t *testing.T) {
	prog := isa.MustAssemble(`
        li   r1, 100
        li   r2, 1
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        jmp  loop
`)
	const n = 8
	cores := make([]pe.Core, n)
	for i := range cores {
		cores[i] = isa.NewCore(prog, 64)
	}
	cfg := Config{
		Net:     network.Config{K: 2, Stages: 4, Combining: true},
		Hashing: true,
		PEs:     n,
	}
	m := New(cfg, cores)
	m.Observe(prof.Observers{Tracer: reqtrace.New(reqtrace.Config{Rate: 0})})

	for i := 0; i < 2000; i++ {
		m.Step()
	}

	if avg := testing.AllocsPerRun(500, m.Step); avg != 0 {
		t.Fatalf("Machine.Step with a rate-0 tracer allocates %.2f times per cycle, want 0", avg)
	}
}

// TestStepZeroAllocProfilerDisabled pins the guest profiler's
// zero-overhead-when-off guarantee: with no profiler attached — nil is
// the off state — every PE site is one mask test and Step stays
// allocation-free in steady state.
func TestStepZeroAllocProfilerDisabled(t *testing.T) {
	mk := func() *Machine {
		prog := isa.MustAssemble(`
        li   r1, 100
        li   r2, 1
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        jmp  loop
`)
		const n = 8
		cores := make([]pe.Core, n)
		for i := range cores {
			cores[i] = isa.NewCore(prog, 64)
		}
		return New(Config{
			Net:     network.Config{K: 2, Stages: 4, Combining: true},
			Hashing: true,
			PEs:     n,
		}, cores)
	}

	t.Run("nil", func(t *testing.T) {
		m := mk()
		m.Observe(prof.Observers{})
		for i := 0; i < 2000; i++ {
			m.Step()
		}
		if avg := testing.AllocsPerRun(500, m.Step); avg != 0 {
			t.Fatalf("Machine.Step with profiler=nil allocates %.2f times per cycle, want 0", avg)
		}
	})
}

// TestStepZeroAllocLocalTraffic: private memory allocates a page at the
// first store into it and never again. The guests sweep lw/sw over two
// pages; once both have been stored to, Step allocates nothing.
func TestStepZeroAllocLocalTraffic(t *testing.T) {
	prog := isa.MustAssemble(`
        li   r1, 0
        li   r2, 1023
loop:   lw   r3, 0(r1)
        addi r3, r3, 1
        sw   r3, 0(r1)
        addi r1, r1, 1
        and  r1, r1, r2
        jmp  loop
`)
	const n = 8
	cores := make([]pe.Core, n)
	for i := range cores {
		cores[i] = isa.NewCore(prog, 4096)
	}
	m := New(Config{
		Net:     network.Config{K: 2, Stages: 4, Combining: true},
		Hashing: true,
		PEs:     n,
	}, cores)

	// 1024 words × 6 instructions × PECycle 2 network cycles per sweep:
	// past one full sweep both pages exist.
	for i := 0; i < 15_000; i++ {
		m.Step()
	}
	if got := cores[0].(*isa.Core).Local(1023); got == 0 {
		t.Fatal("warm-up did not reach the second page")
	}

	if avg := testing.AllocsPerRun(500, m.Step); avg != 0 {
		t.Fatalf("Machine.Step allocates %.2f times per cycle under lw/sw traffic over touched pages, want 0", avg)
	}
}

// loadCost reports the objects and bytes Load of cfg with a 16×2×4 cache
// a PE allocates: the least of three Loads, since a young process's
// runtime adds an object to the odd one.
func loadCost(t *testing.T, cfg Config) (objects, bytes uint64) {
	t.Helper()
	prog := isa.MustAssemble("\thalt\n")
	objects, bytes = math.MaxUint64, math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _, err := Load(cfg, prog, LoadOptions{Cache: &cache.Config{Sets: 16, Ways: 2, BlockWords: 4}})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// guestShape is the benchmark's guest machine (k = 2, six stages) at pes
// PEs.
func guestShape(pes int) Config {
	return Config{Net: network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}, PEs: pes, Hashing: true}
}

// TestLoadAllocBudget: Load of the benchmark's guest shape (64 PEs,
// k = 2, six stages, a 16×2×4 cache a PE) allocates the network, the
// MMs, and the PEs' cores, caches and PNIs carved from a constant number
// of slabs — no private memory, which is address space until a guest
// stores to it. 622 992 bytes measured when the PEs began to be carved
// (682 552 with objects of their own), budget 640 KiB. And no object is
// per PE: on the same network, Load at 64 PEs costs at most
// loadPerPEObjects more objects than at 16 — 43 at both when carved,
// 867 against 289 before.
func TestLoadAllocBudget(t *testing.T) {
	const budget = 640 << 10
	const loadPerPEObjects = 0
	o64, b64 := loadCost(t, guestShape(64))
	o16, _ := loadCost(t, guestShape(16))
	t.Logf("Load: %d objects, %d bytes at 64 PEs; %d objects at 16", o64, b64, o16)
	if b64 > budget {
		t.Errorf("Load of the 64-PE benchmark shape allocates %d bytes, budget %d", b64, budget)
	}
	if o64 > o16+loadPerPEObjects {
		t.Errorf("Load allocates %d objects at 64 PEs and %d at 16: %d more, budget %d",
			o64, o16, o64-o16, loadPerPEObjects)
	}
}
