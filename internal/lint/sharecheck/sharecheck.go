// Package sharecheck defines the shard-isolation analyzer: the two
// rules the parallel execution engine (internal/engine) needs phase code
// to obey and the compiler cannot enforce. The engine runs each phase as
// shards over disjoint units with barriers in between; byte-identical
// replay (DESIGN.md, the paper's serialization principle §2) holds only
// if a phase body writes nothing two shards could both reach, and if
// nothing on a cycle path runs outside the barriers.
//
// The first rule walks the whole-program call graph and write-set
// summaries (internal/lint/analysis), so a shared write two or ten calls
// deep is flagged with its full call chain. Roots are the function
// literals handed to engine.Engine.Run — the shard bodies. For every
// function transitively reachable from one, the transitive write set —
// expressed in the literal's own frame — must stay inside state the
// shard owns:
//
//	allowed  writes reaching captured slices/structs (the per-unit and
//	         per-worker scratch convention: elements are indexed by
//	         the unit or worker id the shard owns); writes to
//	         function-local memory
//	flagged  writes to package-level variables; writes into shared
//	         maps (map entries cannot be index-partitioned); rebinding
//	         a captured variable itself; writes of unknown provenance;
//	         channel sends
//
// The second rule forbids goroutine launches on cycle paths. Worker
// scheduling is the engine's job; a `go` statement reachable from a
// cycle root (analysis.CycleRoots) introduces timing the barriers cannot
// order. Only internal/engine itself may start goroutines there.
//
// A site that is intentionally safe (e.g. synchronized by a mechanism
// the lattice cannot see) is silenced with `//ultravet:ok sharecheck
// <reason>` on or above the line. No product goroutine launch needs one:
// a Go guest (pe.GoCore) is a coroutine its PE's Tick resumes, not a
// goroutine.
package sharecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"ultracomputer/internal/lint/analysis"
)

// Analyzer is the sharecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharecheck",
	Doc: "verify that everything reachable from an engine phase body writes " +
		"only shard-owned state (interprocedural write sets), and forbid goroutine " +
		"launches on cycle paths (Tick/Step/Collect and phase units) outside internal/engine",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	type dedup struct {
		pos token.Pos
		msg string
	}
	seen := map[dedup]bool{}
	for _, root := range prog.EnginePhaseLiterals() {
		for _, eff := range analysis.SortedEffects(root.Summary) {
			msg, bad := verdict(eff)
			if !bad {
				continue
			}
			key := dedup{pos: eff.Pos, msg: msg}
			if seen[key] {
				continue
			}
			seen[key] = true
			chain := prog.PathTo([]*analysis.Node{root}, eff.Node, nil)
			pass.Reportf(eff.Pos, chain,
				"%s in an engine phase (%s): phase shards run concurrently and may "+
					"only write shard-owned state; fix the write or annotate "+
					"//ultravet:ok sharecheck <reason>", msg, chain)
		}
	}

	reach := prog.Reachable(prog.CycleRoots(), nil)
	for _, n := range prog.Nodes {
		// The engine is the one place allowed to manage goroutines.
		if reach[n] && !strings.HasSuffix(n.Pkg.Types.Path(), "internal/engine") {
			checkGoStmts(pass, n)
		}
	}
	return nil
}

// checkGoStmts reports goroutine launches inside one cycle-path
// function's own frame (each nested literal is its own node and is
// reached through a containment edge).
func checkGoStmts(pass *analysis.ProgramPass, n *analysis.Node) {
	n.InspectOwn(func(x ast.Node) bool {
		if gs, ok := x.(*ast.GoStmt); ok {
			pass.Reportf(gs.Pos(), "",
				"goroutine launched on a phase path (reachable from %s): worker scheduling "+
					"belongs to internal/engine", enclosingName(n))
		}
		return true
	})
}

// enclosingName is the bare name of the nearest named function, so a
// diagnostic inside a closure names the method that built it.
func enclosingName(n *analysis.Node) string {
	for n.Parent != nil && n.Decl == nil {
		n = n.Parent
	}
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return n.Name()
}

// verdict classifies one summary effect of a phase body. A literal has
// no receiver and its parameters are the shard's integer bounds, so what
// reaches its frame is global, captured or of unknown provenance.
func verdict(e analysis.Effect) (string, bool) {
	if e.Kind == analysis.EffSend {
		return fmt.Sprintf("send on shared channel %s", e.What), true
	}
	switch e.Reg.Kind {
	case analysis.RegGlobal:
		name := "?"
		if e.Reg.Obj != nil {
			name = e.Reg.Obj.Name()
		}
		if e.IsMap {
			return fmt.Sprintf("write into shared map %s", name), true
		}
		return fmt.Sprintf("write to package-level variable %s", name), true
	case analysis.RegShared:
		return fmt.Sprintf("write to state of unknown provenance (%s)", e.What), true
	case analysis.RegCapture:
		if e.IsMap {
			return fmt.Sprintf("write into shared map %s", e.What), true
		}
		if e.Direct {
			name := e.What
			if e.Reg.Obj != nil {
				name = e.Reg.Obj.Name()
			}
			return fmt.Sprintf("rebind of captured variable %s", name), true
		}
		return "", false // per-unit/per-worker scratch convention
	}
	return "", false
}
