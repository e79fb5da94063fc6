// Package stepmutants holds copies of two cycle-path functions with a
// nondeterminism source seeded into each: the memory module's Step
// finding its word by walking the map, and the network stepper's Step
// stamping the wall clock through a helper. detstate must flag both;
// `make lint-mutants` enforces it.
package stepmutants

import "ultracomputer/internal/msg"

// port mirrors memory.Port.
type port interface {
	Dequeue() (msg.Request, bool)
	Reply(msg.Reply) bool
}

// module mirrors the fields of memory.Module its Step reads.
type module struct {
	id        int
	latency   int64
	words     map[int]int64
	busyUntil int64
	current   msg.Request
	busy      bool
	pending   *msg.Reply
	served    int64
}

// Step is memory.Module.Step (internal/memory/memory.go) serving the
// request by ranging over m.words instead of indexing it: the walk
// visits the module's words in the runtime's order, not the program's.
func (m *module) Step(cycle int64, p port) {
	if m.pending != nil {
		if !p.Reply(*m.pending) {
			return
		}
		m.pending = nil
	}
	if m.busy && cycle >= m.busyUntil {
		r := m.current
		var ret int64
		for w, old := range m.words { // want `range over map on a tick path`
			if w != r.Addr.Word {
				continue
			}
			newVal, got := msg.Apply(r.Op, old, r.Operand)
			m.words[w], ret = newVal, got
		}
		m.served++
		m.busy = false
		rep := r.Reply(ret)
		if !p.Reply(rep) {
			blocked := rep
			m.pending = &blocked
			return
		}
	}
	if !m.busy && m.pending == nil {
		if r, ok := p.Dequeue(); ok {
			m.busy, m.current, m.busyUntil = true, r, cycle+m.latency
		}
	}
}
