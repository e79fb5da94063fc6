package isa_test

import (
	"os"
	"strings"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// TestCachedKernelZeroAlloc: the benchmark kernel's cached traffic —
// clds/csts over a PE's region, cflu and crel of the block just written,
// and the fills, evictions and write-backs they cause — allocates nothing:
// each core's write-back queue starts in its carved room, which holds the
// kernel's largest flush. The cache holds half the region, so fills evict
// dirty lines as well as refill released ones.
func TestCachedKernelZeroAlloc(t *testing.T) {
	tmpl, err := os.ReadFile("../../bench/testdata/spmd.s")
	if err != nil {
		t.Fatal(err)
	}
	src := strings.NewReplacer(
		"{{ITERS}}", "1000000000", "{{MUL}}", "7", "{{ADD}}", "13", "{{COUNTER}}", "64",
		"{{SPAN}}", "128", "{{CBASE}}", "4096", "{{LMASK}}", "511", "{{CWORDS}}", "64",
		"{{PHASE}}", "5",
	).Replace(string(tmpl))
	m, _, err := machine.Load(machine.Config{
		Net: network.Config{K: 2, Stages: 2, Combining: true}, PEs: 4, Hashing: true,
	}, isa.MustAssemble(src), machine.LoadOptions{Cache: &cache.Config{Sets: 4, Ways: 2, BlockWords: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// A flush every 64 iterations, ≈ 2 300 network cycles apart: warm up
	// past several, then measure windows that each hold some.
	for i := 0; i < 30_000; i++ {
		m.Step()
	}
	if avg := testing.AllocsPerRun(3, func() {
		for i := 0; i < 10_000; i++ {
			m.Step()
		}
	}); avg != 0 {
		t.Fatalf("10 000 cycles of the cached kernel allocate %v times, want 0", avg)
	}
}
