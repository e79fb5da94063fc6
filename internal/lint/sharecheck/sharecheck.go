// Package sharecheck defines the shard-isolation analyzer: the two
// rules the parallel execution engine (internal/engine) needs phase code
// to obey and the compiler cannot enforce. The engine runs each Compute
// phase as shards over disjoint units with barriers in between;
// byte-identical replay (DESIGN.md, the paper's serialization principle
// §2) holds only if Compute-phase code writes nothing two shards could
// both reach, and if nothing on a cycle path runs outside the barriers.
//
// The first rule walks the whole-program call graph and write-set
// summaries (internal/lint/analysis), so a shared write two or ten calls
// deep is flagged with its full call chain. Roots are the Compute-phase
// entry points: methods named Compute and the function literals handed
// to engine.Engine.Run (the shard bodies). For every function
// transitively reachable from a root, the transitive write set —
// expressed in the root's own frame — must stay inside state the shard
// owns:
//
//	allowed  writes to the root's receiver; writes reaching captured
//	         slices/structs (the per-unit and per-worker scratch
//	         convention: elements are indexed by the unit or worker id
//	         the shard owns); writes to function-local memory
//	flagged  writes to package-level variables; writes into shared
//	         maps (map entries cannot be index-partitioned); rebinding
//	         a captured variable itself; writes through non-receiver
//	         pointer parameters; writes of unknown provenance; channel
//	         sends on anything but receiver-owned channels
//
// The second rule forbids goroutine launches on cycle paths. Worker
// scheduling is the engine's job; a `go` statement reachable from
// Tick/Step/Compute/Commit introduces timing the barriers cannot order.
// Only internal/engine itself may start goroutines there.
//
// A site that is intentionally safe (e.g. synchronized by a mechanism
// the lattice cannot see, or the one legitimate goroutine: a
// guest-program goroutine that advances in lockstep with its own Tick
// via a channel handshake and therefore never runs concurrently with
// phase code) is silenced with `//ultravet:ok sharecheck <reason>` on or
// above the line.
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
	Doc: "verify that everything reachable from a Compute-phase entry point " +
		"writes only shard-owned state (interprocedural write sets), and forbid " +
		"goroutine launches on Tick/Step/Compute/Commit paths outside internal/engine",
	RunProgram: run,
}

// computeNames are the conventional Compute-phase method names.
var computeNames = map[string]bool{"Compute": true, "compute": true}

// cycleNames are the cycle-path entry points; goroutine-launch
// reachability starts here.
var cycleNames = map[string]bool{
	"Tick": true, "tick": true,
	"Step": true, "step": true,
	"Compute": true, "compute": true,
	"Commit": true, "commit": true,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	var roots []*analysis.Node
	for _, n := range prog.RootsByName(computeNames) {
		if n.Decl != nil && n.Decl.Recv != nil {
			roots = append(roots, n)
		}
	}
	roots = append(roots, prog.EnginePhaseLiterals()...)

	type dedup struct {
		pos token.Pos
		msg string
	}
	seen := map[dedup]bool{}
	for _, root := range roots {
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
				"%s on a Compute path (%s): Compute shards run concurrently and may "+
					"only write shard-owned state; fix the write or annotate "+
					"//ultravet:ok sharecheck <reason>", msg, chain)
		}
	}

	reach := prog.Reachable(prog.RootsByName(cycleNames), nil)
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
					"belongs to internal/engine; annotate //ultravet:ok sharecheck only for "+
					"tick-synchronized guest goroutines", enclosingName(n))
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

// verdict classifies one summary effect of a Compute root.
func verdict(e analysis.Effect) (string, bool) {
	if e.Kind == analysis.EffSend {
		switch e.Reg.Kind {
		case analysis.RegRecv:
			return "", false // receiver-owned staging channel
		default:
			return fmt.Sprintf("send on shared channel %s", e.What), true
		}
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
	case analysis.RegParam:
		return fmt.Sprintf("write through non-receiver parameter (%s)", e.What), true
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
