package machine

import (
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
)

// StepPE must advance exactly the chosen PE by exactly one instruction,
// with its shared traffic drained, and leave every other PE untouched.
func TestStepPEIsolation(t *testing.T) {
	prog := isa.MustAssemble(`
        rdpe r1
        addi r2, r1, 10
        li   r3, 1
        faa  r4, 0(r2), r3   ; M[10+pe] += 1
        halt
`)
	cfg := Config{Net: network.Config{K: 2, Stages: 2, Combining: true}, PEs: 2}
	m, _, err := Load(cfg, prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Run PE 1 to completion, one instruction at a time; PE 0 must not move.
	for i := 0; i < 5; i++ {
		if err := m.StepPE(1, 1<<14); err != nil {
			t.Fatalf("StepPE(1) step %d: %v", i, err)
		}
		if got := m.pes[0].Stats().Instructions.Value(); got != 0 {
			t.Fatalf("PE0 executed %d instructions while PE1 was scheduled", got)
		}
	}
	if !m.pes[1].Halted() {
		t.Fatal("PE1 not halted after its 5 instructions")
	}
	if got := m.pes[1].Stats().Instructions.Value(); got != 4 {
		t.Fatalf("PE1 retired %d instructions, want 4 (halt retires none)", got)
	}
	if got := m.ReadShared(11); got != 1 {
		t.Fatalf("M[11] = %d after PE1's faa, want 1", got)
	}
	if got := m.ReadShared(10); got != 0 {
		t.Fatalf("M[10] = %d before PE0 ran, want 0", got)
	}

	// Stepping a halted PE is a schedule error, not a silent no-op.
	if err := m.StepPE(1, 1<<14); err == nil {
		t.Fatal("StepPE on a halted PE did not error")
	}

	// PE 0 still runs normally afterwards.
	for i := 0; i < 5; i++ {
		if err := m.StepPE(0, 1<<14); err != nil {
			t.Fatalf("StepPE(0) step %d: %v", i, err)
		}
	}
	if got := m.ReadShared(10); got != 1 {
		t.Fatalf("M[10] = %d after PE0's faa, want 1", got)
	}
	// The machine is fully drained at every schedule boundary.
	if !m.Done() {
		t.Fatal("machine not done with both PEs halted and traffic drained")
	}
}
