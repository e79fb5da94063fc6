// Package detstate defines an analyzer that forbids nondeterminism
// sources inside the simulator's cycle paths. The whole repo's claim to
// reproducibility rests on the tick loop being a pure function of the
// seed: two runs with identical configuration must produce byte-identical
// traces (the paper's simulation methodology, §4.2, depends on exact
// repeatability for its paired ideal-vs-real comparisons).
//
// A function is on a tick path when it is reachable from a cycle root
// (analysis.CycleRoots: functions and methods named Tick, Step or
// Collect, either case, and the engine's phase literals) through the
// call-graph edges that stay inside the caller's package. The
// per-package reach is a choice, not a limit of the call graph: a
// package's tick path is what it must keep deterministic itself, and what
// it calls in another package is held to the rule from that package's own
// roots. Followed across packages the same walk reaches the collect-then-sort
// map ranges of the profile exporter (internal/obs/prof/export.go,
// internal/isa/spans.go, through Machine.sample → Profiler.Publish) and
// the benchmark's span timer (through interface dispatch on Engine.Run):
// host-side code the rule does not mean. Within tick paths the
// analyzer reports:
//
//   - calls to time.Now / time.Since / time.Until (wall-clock input);
//   - uses of the global math/rand source (rand.Intn and friends) —
//     a component must own a seeded sim.Rand instead;
//   - range statements over map values, whose iteration order is
//     deliberately randomized by the runtime. A loop that only collects
//     the map's keys into a slice (to be sorted and iterated) is
//     permitted.
package detstate

import (
	"go/ast"
	"go/types"

	"ultracomputer/internal/lint/analysis"
)

// Analyzer is the detstate pass.
var Analyzer = &analysis.Analyzer{
	Name: "detstate",
	Doc: "forbid wall-clock reads, global math/rand and unordered map iteration " +
		"in functions reachable, inside their package, from the cycle roots " +
		"(Tick/Step/Collect and engine phase units)",
	RunProgram: run,
}

// globalRandFns are the math/rand package-level functions that draw from
// the shared global source. Constructors (New, NewSource, NewZipf) are
// fine: a seeded *rand.Rand is deterministic.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// timeFns are the wall-clock readers.
var timeFns = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	samePackage := func(n *analysis.Node, e analysis.Edge) bool { return e.Callee.Pkg == n.Pkg }
	reach := prog.Reachable(prog.CycleRoots(), samePackage)
	for _, n := range prog.Nodes { // position-sorted
		if reach[n] {
			checkFunc(pass, n)
		}
	}
	return nil
}

// checkFunc reports nondeterminism sources inside one tick-path
// function's own frame (a nested literal is its own node, reached
// through its containment edge).
func checkFunc(pass *analysis.ProgramPass, n *analysis.Node) {
	info := n.Pkg.Info
	n.InspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			pkgName, ok := qualifier(info, x)
			if !ok {
				return true
			}
			switch {
			case pkgName.Imported().Path() == "time" && timeFns[x.Sel.Name]:
				pass.Reportf(x.Pos(), "",
					"call to time.%s on a tick path: wall-clock input makes runs unrepeatable",
					x.Sel.Name)
			case pkgName.Imported().Path() == "math/rand" && globalRandFns[x.Sel.Name]:
				pass.Reportf(x.Pos(), "",
					"use of global math/rand.%s on a tick path: use a component-owned seeded sim.Rand",
					x.Sel.Name)
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[x.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionLoop(x) {
				return true
			}
			pass.Reportf(x.Pos(), "",
				"range over map on a tick path: iteration order is nondeterministic; "+
					"iterate sorted keys or keep the state slice-backed")
		}
		return true
	})
}

// qualifier resolves the package a selector like time.Now is qualified
// with, if it is a package at all.
func qualifier(info *types.Info, sel *ast.SelectorExpr) (*types.PkgName, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	return pkgName, ok
}

// isKeyCollectionLoop recognizes the one blessed map-range shape — the
// first half of sorted-key iteration:
//
//	for k := range m { keys = append(keys, k) }
//
// The body must be a single append of the loop key (no value use), so the
// loop's effect is order-insensitive.
func isKeyCollectionLoop(rs *ast.RangeStmt) bool {
	if rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}
