package allocmutants

import "ultracomputer/internal/engine"

// machine mirrors the fields of machine.Machine a phase reads.
type machine struct {
	eng   engine.Engine
	ticks []int64
	cycle int64
}

// run hands the engine a PE-tick phase body, as machine.Machine.Step
// does, but the body wraps each unit's work in a closure over the unit
// index: one closure object per unit per cycle. No root name leads here;
// the literal is a root because an Engine.Run receives it.
func (m *machine) run() {
	m.eng.Run(len(m.ticks), func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			tick := func() { m.ticks[i] = m.cycle } // want `closure captures variables`
			tick()
		}
	})
}
