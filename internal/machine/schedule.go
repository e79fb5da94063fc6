package machine

import "fmt"

// Schedule-driven stepping: the model checker (internal/lint/guest/mc)
// proves properties over interleavings of whole instructions, so its
// counterexamples are PE schedules at instruction granularity. StepPE
// lets a replay harness impose exactly that granularity on the real
// machine — run one chosen PE until it retires one instruction, then
// drain its shared-memory traffic before anyone else moves — which makes
// the machine's memory trajectory match the checker's step for step.

// StepPE advances the machine until PE p has executed exactly one
// instruction (or halted) and all of its shared-memory traffic has been
// acknowledged, while every other PE's instruction stream is frozen.
// Replies still deliver machine-wide, so traffic already in flight is
// unaffected. maxCycles bounds the network cycles spent; exceeding it
// (a PE that cannot make progress) is an error.
func (m *Machine) StepPE(p int, maxCycles int64) error {
	if p < 0 || p >= len(m.pes) {
		return fmt.Errorf("machine: StepPE(%d) with %d PEs", p, len(m.pes))
	}
	pe := m.pes[p]
	if pe.Halted() {
		return fmt.Errorf("machine: StepPE(%d): PE already halted", p)
	}
	m.solo = p
	defer func() { m.solo = -1 }()

	deadline := m.cycle + maxCycles
	start := pe.Stats().Instructions.Value()
	for pe.Stats().Instructions.Value() == start && !pe.Halted() {
		if m.cycle >= deadline {
			return fmt.Errorf("machine: StepPE(%d): no instruction retired in %d cycles", p, maxCycles)
		}
		m.Step()
	}
	// Drain: the instruction's stores and fetch-and-phis must reach the
	// MMs (and their acks return) before the next schedule step, so the
	// serialization order is the schedule order. No PE may tick here —
	// p itself would otherwise run ahead of its one scheduled
	// instruction (register locking only stalls dependent instructions).
	m.solo = len(m.pes)
	for !pe.Drained() {
		if m.cycle >= deadline {
			return fmt.Errorf("machine: StepPE(%d): traffic not drained in %d cycles", p, maxCycles)
		}
		m.Step()
	}
	return nil
}
