package pe

import "fmt"

// MultiCore hardware-multiprograms k instruction streams on one PE
// (§3.5): "if the latency remains an impediment to performance, we would
// hardware-multiprogram the PEs (as in the CHOPP design and the Denelcor
// HEP machine)". Each processor cycle is offered to the streams in
// round-robin order starting after the last one that executed; a stream
// stalled on a locked register or a refused issue forfeits the cycle to
// the next ready stream, so one stream's memory latency is hidden behind
// the others' execution — k-fold multiprogramming behaves like k PEs of
// relative performance 1/k, needing larger problems for the same
// efficiency, which is why the paper calls it a last resort.
type MultiCore struct {
	cores []Core
	next  int
}

// tagStride partitions the PE's completion-tag space among the streams;
// each stream's own tags must stay below it (GoCore recycles tags so its
// space is bounded by the outstanding-request limit; the ISA core uses
// at most 2×NumRegs).
const tagStride = 1 << 20

// NewMultiCore interleaves the given streams on one PE.
func NewMultiCore(cores ...Core) *MultiCore {
	if len(cores) == 0 {
		panic("pe: MultiCore needs at least one core")
	}
	if len(cores) > tagStride {
		panic("pe: too many streams")
	}
	return &MultiCore{cores: cores}
}

// Tick implements Core: offer the cycle to each stream in turn until one
// executes.
func (m *MultiCore) Tick(env *Env) TickResult {
	allHalted := true
	for i := 0; i < len(m.cores); i++ {
		idx := (m.next + i) % len(m.cores)
		sub := *env
		sub.tagShift = idx * tagStride
		r := m.cores[idx].Tick(&sub)
		// Surface any stream's issue refusals for stall attribution.
		env.refusedNet = env.refusedNet || sub.refusedNet
		env.refusedPipe = env.refusedPipe || sub.refusedPipe
		if r.Halted {
			continue
		}
		allHalted = false
		if r.Executed {
			m.next = (idx + 1) % len(m.cores)
			return r
		}
	}
	if allHalted {
		return TickResult{Halted: true}
	}
	// Every live stream is stalled: the cycle is genuinely idle.
	return TickResult{}
}

// Complete implements Core, routing the reply to the issuing stream.
func (m *MultiCore) Complete(tag int, value int64) {
	idx := tag / tagStride
	if idx < 0 || idx >= len(m.cores) {
		panic(fmt.Sprintf("pe: MultiCore completion for unknown stream %d", idx))
	}
	m.cores[idx].Complete(tag%tagStride, value)
}
