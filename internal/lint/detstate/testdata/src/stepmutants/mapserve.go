// Package stepmutants holds copies of three cycle-path functions with a
// nondeterminism source seeded into each: the guest profiler counting a
// module's serve by walking its per-word map, the network stepper's Step
// stamping the wall clock through a helper, and the machine's Step
// ticking each PE on its own goroutine. detstate must flag all three;
// `make lint-mutants` enforces it.
package stepmutants

import "ultracomputer/internal/msg"

// probe mirrors obs.Probe, through which a module's serve reaches the
// profiler.
type probe interface {
	Emit(mm, word int, op msg.Op)
}

// module mirrors the fields of memory.Module its Step reads to report a
// serve.
type module struct {
	id        int
	busyUntil int64
	current   msg.Request
	busy      bool
	out       probe
}

// Step is the serve half of memory.Module.Step (internal/memory/memory.go):
// a finished access is reported to the attached consumers.
func (m *module) Step(cycle int64) {
	if m.busy && cycle >= m.busyUntil {
		m.busy = false
		m.out.Emit(m.id, m.current.Addr.Word, m.current.Op)
	}
}

// wordRec mirrors prof.wordRec: one shared word's heatmap record.
type wordRec struct {
	addr   int64
	served int64
}

// profiler mirrors the part of prof.Profiler a serve reaches: the
// heatmap, one map per module.
type profiler struct {
	words []map[int]wordRec
}

// Emit is prof.Profiler.Emit's KindMNIServe case: a dynamic call from
// module.Step, so it is on the tick path.
func (p *profiler) Emit(mm, word int, op msg.Op) { p.serve(mm, word) }

// serve is prof.Profiler.ProfServe (internal/obs/prof/prof.go) finding
// the word's record by ranging over its module's map instead of
// indexing it: the walk visits the words in the runtime's order, not the
// program's.
func (p *profiler) serve(mm, word int) {
	words := p.words[mm]
	for w, r := range words { // want `range over map on a tick path`
		if w == word {
			r.served++
			words[w] = r
			return
		}
	}
	words[word] = wordRec{addr: -1, served: 1}
}
