package machine

import (
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
	"ultracomputer/internal/pe"
)

// tickCounter counts its core's Tick calls. It embeds the core, so it
// keeps every capability the core has (PCer, Burster).
type tickCounter struct {
	*isa.Core
	ticks *int64
}

func (c tickCounter) Tick(env *pe.Env) pe.TickResult {
	*c.ticks++
	return c.Core.Tick(env)
}

// TestTickBudget counts the interpreter's work on the guest-ideal op (the
// benchmark kernel, 1 024 iterations on 64 PEs with a 16×2×4 cache under
// IdealMemory, through Machine.Run): Core.Tick calls per retired
// instruction. A core ticked once per instruction reads ≥ 1; one that
// retires its private runs in one call reads far less. A count, not a
// time, so the host cannot move it; the budget is 5 % above today's.
func TestTickBudget(t *testing.T) {
	const budget = 0.0379 * 1.05
	prog, err := isa.Assemble(kernelSource(t, 1024))
	if err != nil {
		t.Fatal(err)
	}
	var ticks int64
	cores := make([]pe.Core, 64)
	for i := range cores {
		cores[i] = tickCounter{isa.NewCoreWithCache(prog, 4096, cache.Config{Sets: 16, Ways: 2, BlockWords: 4}), &ticks}
	}
	m := New(Config{
		Net: network.Config{K: 2, Stages: 6, Copies: 1, Combining: true},
		PEs: 64, Hashing: true, IdealMemory: true,
	}, cores)
	if _, done := m.Run(10_000_000); !done {
		t.Fatal("kernel not halted")
	}
	if got, want := m.ReadShared(64), int64(1024/64*64); got != want {
		t.Fatalf("shared counter = %d, want %d", got, want)
	}
	instr := m.Report().Instructions
	per := float64(ticks) / float64(instr)
	t.Logf("%d Core.Tick calls for %d instructions: %.4f a instruction (budget %.4f)", ticks, instr, per, budget)
	if per > budget {
		t.Errorf("%.4f Core.Tick calls per retired instruction, budget %.4f", per, budget)
	}
}
