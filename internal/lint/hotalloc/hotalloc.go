// Package hotalloc defines the hot-path allocation analyzer. The
// simulator's cycle loop is required to be zero-alloc in steady state
// (the observability contract already demands it of disabled probes): a
// heap allocation per tick turns into GC pressure that dwarfs the
// simulated work at the paper's 4096-PE scale. hotalloc walks the whole-program
// call graph from the cycle roots (analysis.CycleRoots: functions and
// methods named Tick, Step or Collect, plus the function literals handed
// to an engine.Engine as phase units) and flags every potential
// heap-allocation site reachable from them:
//
//	make/new calls; slice, map and address-taken composite literals;
//	variable-capturing closures (one closure object per evaluation);
//	append into a function-local slice (fresh backing array per call);
//	fmt.* calls (every argument is boxed into an interface)
//
// Two escape hatches keep the signal usable, both spelled
// `//ultravet:ok hotalloc <reason>`:
//
//   - on an allocation site: the site is accepted (e.g. a buffer that
//     amortizes to zero growth in steady state);
//   - on a call site: the edge is a cold boundary — the callee runs
//     once (lazy initialization, error paths) and its allocations are
//     not charged to the cycle loop.
//
// Everything still flagged must be fixed; the AllocsPerRun regression
// test in internal/machine is the dynamic proof of the same contract.
package hotalloc

import (
	"go/token"
	"sort"

	"ultracomputer/internal/lint/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag heap-allocation sites reachable from the cycle loop " +
		"(Tick/Step/Collect and engine phase units)",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	roots := prog.CycleRoots()

	// A call edge annotated //ultravet:ok hotalloc is a cold boundary:
	// don't walk through it.
	follow := func(_ *analysis.Node, e analysis.Edge) bool {
		return !prog.Suppressed(pass.Analyzer.Name, e.Pos)
	}
	reach := prog.Reachable(roots, follow)

	var nodes []*analysis.Node
	for _, n := range prog.Nodes { // prog.Nodes is position-sorted
		if reach[n] {
			nodes = append(nodes, n)
		}
	}
	reported := map[token.Pos]bool{}
	for _, n := range nodes {
		allocs := append([]analysis.Alloc(nil), n.Allocs...)
		sort.Slice(allocs, func(i, j int) bool { return allocs[i].Pos < allocs[j].Pos })
		for _, a := range allocs {
			if reported[a.Pos] {
				continue
			}
			reported[a.Pos] = true
			chain := prog.PathTo(roots, n, follow)
			pass.Reportf(a.Pos, chain,
				"%s on a cycle path (%s): the tick loop must be zero-alloc in steady "+
					"state; preallocate, hoist, or annotate //ultravet:ok hotalloc <reason>",
				a.What, chain)
		}
	}
	return nil
}
