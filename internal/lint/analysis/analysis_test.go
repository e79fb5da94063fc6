package analysis_test

import (
	"strings"
	"testing"

	"ultracomputer/internal/lint/analysis"
	"ultracomputer/internal/lint/analysis/analysistest"
)

// loadCallgraph loads the testdata/src/callgraph fixture as a
// one-package program.
func loadCallgraph(t *testing.T) *analysis.Program {
	t.Helper()
	return analysistest.LoadProgram(t, "testdata", "callgraph")
}

// node finds a program node by its stable name.
func node(t *testing.T, prog *analysis.Program, name string) *analysis.Node {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name() == name {
			return n
		}
	}
	var names []string
	for _, n := range prog.Nodes {
		names = append(names, n.Name())
	}
	t.Fatalf("no node named %q; have %s", name, strings.Join(names, ", "))
	return nil
}

// edges collects the names of n's callees reached through edges of the
// given kind.
func edges(n *analysis.Node, kind analysis.EdgeKind) []string {
	var out []string
	for _, e := range n.Calls {
		if e.Kind == kind {
			out = append(out, e.Callee.Name())
		}
	}
	return out
}

// TestCallGraphInterfaceDispatch checks class-hierarchy resolution: a
// call through an interface gets one dynamic edge per concrete method
// whose receiver implements the interface — and none to same-named
// methods with the wrong signature.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadCallgraph(t)
	dispatch := node(t, prog, "callgraph.dispatch")

	got := edges(dispatch, analysis.EdgeDynamic)
	want := map[string]bool{
		"callgraph.(A).Go": true,
		"callgraph.(B).Go": true,
	}
	if len(got) != len(want) {
		t.Fatalf("dispatch dynamic edges = %v, want the method set %v", got, want)
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("dispatch has unexpected dynamic edge to %s", name)
		}
	}
	if len(edges(dispatch, analysis.EdgeStatic)) != 0 {
		t.Errorf("dispatch should have no static edges, got %v", edges(dispatch, analysis.EdgeStatic))
	}
}

// TestCallGraphClosures checks the containment edges: a function
// literal becomes its own node, named parent·funcN, linked from the
// enclosing function so reachability flows through it.
func TestCallGraphClosures(t *testing.T) {
	prog := loadCallgraph(t)
	run := node(t, prog, "callgraph.run")
	lit := node(t, prog, "callgraph.run·func1")

	if lit.Parent != run {
		t.Errorf("literal's Parent = %v, want callgraph.run", lit.Parent)
	}
	if got := edges(run, analysis.EdgeContains); len(got) != 1 || got[0] != "callgraph.run·func1" {
		t.Errorf("run contains edges = %v, want [callgraph.run·func1]", got)
	}
	if got := edges(run, analysis.EdgeStatic); len(got) != 1 || got[0] != "callgraph.dispatch" {
		t.Errorf("run static edges = %v, want [callgraph.dispatch]", got)
	}
	if got := edges(lit, analysis.EdgeStatic); len(got) != 1 || got[0] != "callgraph.helper" {
		t.Errorf("literal static edges = %v, want [callgraph.helper]", got)
	}
}

// TestReachableAndPathTo checks transitive reachability across all
// three edge kinds and the rendered shortest chain.
func TestReachableAndPathTo(t *testing.T) {
	prog := loadCallgraph(t)
	run := node(t, prog, "callgraph.run")

	seen := prog.Reachable([]*analysis.Node{run}, nil)
	for _, name := range []string{
		"callgraph.dispatch", "callgraph.(A).Go", "callgraph.(B).Go",
		"callgraph.run·func1", "callgraph.helper",
	} {
		if !seen[node(t, prog, name)] {
			t.Errorf("%s not reachable from run", name)
		}
	}

	helper := node(t, prog, "callgraph.helper")
	want := "callgraph.run → callgraph.run·func1 → callgraph.helper"
	if got := prog.PathTo([]*analysis.Node{run}, helper, nil); got != want {
		t.Errorf("PathTo(run, helper) = %q, want %q", got, want)
	}

	// A follow callback that refuses containment edges must cut the
	// literal (and helper behind it) out of the reachable set.
	noContains := func(_ *analysis.Node, e analysis.Edge) bool {
		return e.Kind != analysis.EdgeContains
	}
	pruned := prog.Reachable([]*analysis.Node{run}, noContains)
	if pruned[helper] {
		t.Errorf("helper reachable despite contains edges being pruned")
	}
	if !pruned[node(t, prog, "callgraph.(A).Go")] {
		t.Errorf("(A).Go should stay reachable when only contains edges are pruned")
	}
}

// TestSummaryReceiverWrite reads a write-set summary directly: (A).Go
// stores through its receiver, and that is all it writes.
func TestSummaryReceiverWrite(t *testing.T) {
	prog := loadCallgraph(t)
	effs := analysis.SortedEffects(node(t, prog, "callgraph.(A).Go").Summary)
	if len(effs) != 1 || effs[0].Kind != analysis.EffWrite || effs[0].Reg.Kind != analysis.RegRecv {
		t.Errorf("(A).Go summary = %+v, want one receiver write", effs)
	}
}
