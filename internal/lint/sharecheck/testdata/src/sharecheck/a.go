package sharecheck

import "ultracomputer/internal/engine"

var global int
var table = map[string]int{}

type unit struct {
	eng   engine.Engine
	val   int
	stage []int
}

// A phase body confined to the struct it captured: everything here is
// fine (the per-unit scratch convention), through the helper too.
func (u *unit) Step(cycle int64) {
	u.eng.Run(1, func(lo, hi, w int) {
		u.val++
		u.stage = append(u.stage, u.val)
		u.confined()
	})
}

func (u *unit) confined() { u.val *= 2 }

type leaky struct {
	eng engine.Engine
	n   int
}

// The global write is two calls deep; sharecheck follows the chain.
func (l *leaky) Step(cycle int64) {
	l.eng.Run(1, func(lo, hi, w int) {
		l.n++
		l.addG()
	})
}

func (l *leaky) addG() { bump() }

func bump() { global++ } // want `write to package-level variable global`

type mapper struct {
	eng engine.Engine
	n   int
}

func (m *mapper) Step(cycle int64) {
	m.eng.Run(1, func(lo, hi, w int) {
		table["k"] = m.n // want `write into shared map table`
	})
}

type quiet struct {
	eng engine.Engine
	n   int
}

func (q *quiet) Step(cycle int64) {
	q.eng.Run(1, func(lo, hi, w int) {
		//ultravet:ok sharecheck counter is owned by the test harness, not a shard
		global = q.n
	})
}

// notAPhase is not handed to the engine and is not reachable from a
// phase body: its global write is none of sharecheck's business, and
// neither is a method that merely looks like a root by name.
func notAPhase() { global = 7 }

func (q *quiet) Tick() { global = q.n }
