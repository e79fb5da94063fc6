package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The cycle path is declared here, once: the simulator's hot loop is
// entered through the methods product code names Tick, Step or Collect
// (machine.Machine.Step, pe.PE.Tick, memory.Module.Step,
// network.Stepper.Step and Collect, network.Network.collect, the
// synthetic driver's runner.step) and through the function literals
// machine.Machine.Step hands to its engine.Engine as phase units, which
// it calls through an interface. detstate and hotalloc start from
// CycleRoots.

// CycleRootNames are the names a declared function or method bears to be
// a cycle-path entry point.
var CycleRootNames = map[string]bool{
	"Tick": true, "tick": true,
	"Step": true, "step": true,
	"Collect": true, "collect": true,
}

// CycleRoots returns the cycle path's entry points: the declared
// functions and methods named in CycleRootNames, in deterministic node
// order, then EnginePhaseLiterals.
func (p *Program) CycleRoots() []*Node {
	var out []*Node
	for _, n := range p.Nodes {
		if n.Obj != nil && CycleRootNames[n.Obj.Name()] {
			out = append(out, n)
		}
	}
	return append(out, p.EnginePhaseLiterals()...)
}

// EnginePhaseLiterals returns the function literals handed to an engine
// phase runner: a method named Run declared in internal/engine
// (engine.Engine.Run and its implementations). A literal reaches a
// runner either directly as a call argument or — the zero-alloc idiom —
// hoisted into a struct field or variable once and passed by name every
// cycle; one step of dataflow (func literals assigned to the variable the
// call site names) covers the hoisted form.
func (p *Program) EnginePhaseLiterals() []*Node {
	assigned := p.literalAssignments()
	var out []*Node
	seen := map[*Node]bool{}
	add := func(n *Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range p.Nodes {
		info := n.Pkg.Info
		n.InspectOwn(func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !isPhaseRunner(obj) {
				return true
			}
			for _, arg := range call.Args {
				arg = ast.Unparen(arg)
				if lit, ok := arg.(*ast.FuncLit); ok {
					add(p.ByLit[lit])
					continue
				}
				if v := varOf(info, arg); v != nil {
					for _, root := range assigned[v] {
						add(root)
					}
				}
			}
			return true
		})
	}
	return out
}

// literalAssignments maps each variable (including struct fields) to
// the function-literal nodes assigned to it anywhere in the program.
func (p *Program) literalAssignments() map[*types.Var][]*Node {
	out := map[*types.Var][]*Node{}
	for _, n := range p.Nodes {
		info := n.Pkg.Info
		n.InspectOwn(func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok {
					continue
				}
				node := p.ByLit[lit]
				if node == nil {
					continue
				}
				if v := varOf(info, as.Lhs[i]); v != nil {
					out[v] = append(out[v], node)
				}
			}
			return true
		})
	}
	return out
}

// varOf resolves an identifier or field selector to its variable
// object.
func varOf(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isPhaseRunner recognizes the functions whose func-typed arguments run
// as engine phase units.
func isPhaseRunner(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return obj.Name() == "Run" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/engine")
}
