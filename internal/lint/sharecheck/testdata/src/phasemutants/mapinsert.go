package phasemutants

import "ultracomputer/internal/engine"

type pes struct {
	eng    engine.Engine
	halted []bool
}

// Step runs the PE-tick phase, as machine.Machine.Step does; each shard
// records its halted PEs in one map captured from the enclosing frame
// instead of a slice indexed by PE.
func (p *pes) Step(cycle int64) {
	haltedAt := map[int]int64{}
	p.eng.Run(len(p.halted), func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			if p.halted[i] {
				haltedAt[i] = cycle // want `write into shared map haltedAt`
			}
		}
	})
}
