// Package phasemutants holds two engine phase bodies, shaped like the
// machine's MM-service and PE-tick phases, each with a write two shards
// could both reach seeded into it: a package-level counter, and a map
// shared by capture. sharecheck must flag both; `make lint-mutants`
// enforces it.
package phasemutants

import "ultracomputer/internal/engine"

// served counts completed memory operations — for every module at once.
var served int64

type module struct{ busy bool }

type bank struct {
	eng     engine.Engine
	modules []module
}

// Step runs the MM-service phase, as machine.Machine.Step does; each
// shard bumps the one package-level counter instead of a per-module one.
func (b *bank) Step() {
	b.eng.Run(len(b.modules), func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			b.modules[i].busy = false // per-unit state, indexed by the unit id: allowed
			served++                  // want `write to package-level variable served`
		}
	})
}
