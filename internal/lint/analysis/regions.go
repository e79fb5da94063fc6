package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes, for every function, a conservative alias
// environment over a region lattice — what memory an expression
// evaluates into, expressed in the function's own frame — and the
// function's potential heap-allocation sites. lockcheck asks RegionOf
// its one aliasing question; hotalloc reads Allocs.
//
// The lattice classifies what memory an expression evaluates into:
//
//	RegNone    no memory (arithmetic, literals)
//	RegLocal   storage owned by this call frame: locals, fresh make/new/
//	           composite allocations
//	RegRecv    memory reachable from the receiver
//	RegParam   memory reachable from parameter i
//	RegGlobal  a package-level variable (which one, in Obj)
//	RegCapture a variable captured from an enclosing function (in Obj)
//	RegShared  top: unknown or mixed provenance
//
// Joins of unequal non-None regions go to RegShared. The analysis is
// flow-insensitive (one environment per function, iterated to a local
// fixpoint) and deliberately one-level: a pointer stored into a
// locally-built struct keeps the struct RegLocal.

// RegionKind is the lattice level.
type RegionKind uint8

const (
	RegNone RegionKind = iota
	RegLocal
	RegRecv
	RegParam
	RegGlobal
	RegCapture
	RegShared
)

func (k RegionKind) String() string {
	switch k {
	case RegNone:
		return "none"
	case RegLocal:
		return "local"
	case RegRecv:
		return "receiver"
	case RegParam:
		return "parameter"
	case RegGlobal:
		return "global"
	case RegCapture:
		return "captured"
	}
	return "shared"
}

// Region is one lattice point.
type Region struct {
	Kind  RegionKind
	Index int        // parameter index, RegParam only
	Obj   *types.Var // the variable, RegGlobal/RegCapture only
}

func join(a, b Region) Region {
	if a == b || b.Kind == RegNone {
		return a
	}
	if a.Kind == RegNone {
		return b
	}
	if a.Kind == RegLocal && b.Kind == RegLocal {
		return Region{Kind: RegLocal}
	}
	return Region{Kind: RegShared}
}

// Alloc is one potential heap-allocation site (hotalloc's raw material).
type Alloc struct {
	Pos  token.Pos
	Node *Node
	What string
}

// buildRegions computes, for every node, the local alias environment
// and the allocation sites of its own body.
func (p *Program) buildRegions() {
	for _, n := range p.Nodes {
		p.scanFrame(n)
	}
	for _, n := range p.Nodes {
		p.buildEnv(n)
	}
	for _, n := range p.Nodes {
		p.collectAllocs(n)
	}
}

// scanFrame records n's receiver and parameter objects.
func (p *Program) scanFrame(n *Node) {
	info := n.Pkg.Info
	n.params = map[*types.Var]int{}
	idx := 0
	if n.Decl != nil && n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
		n.recv, _ = info.Defs[n.Decl.Recv.List[0].Names[0]].(*types.Var)
	}
	if ft := n.FuncType(); ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj, ok := info.Defs[name].(*types.Var); ok {
					n.params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
}

// classify resolves what region a variable object belongs to in n's
// frame.
func (p *Program) classify(n *Node, obj *types.Var) Region {
	if obj == nil {
		return Region{Kind: RegShared}
	}
	if obj == n.recv {
		return Region{Kind: RegRecv}
	}
	if i, ok := n.params[obj]; ok {
		return Region{Kind: RegParam, Index: i}
	}
	if obj.Parent() == n.Pkg.Types.Scope() || (obj.Pkg() != nil && obj.Pkg() != n.Pkg.Types) {
		return Region{Kind: RegGlobal, Obj: obj}
	}
	if r, ok := n.env[obj]; ok {
		return r
	}
	if p.declaredIn(n, obj) {
		return Region{Kind: RegLocal}
	}
	// Declared in an enclosing function: a closure capture.
	return Region{Kind: RegCapture, Obj: obj}
}

// declaredIn reports whether obj's declaration position falls inside
// n's own body (excluding nested literals' bodies — their locals are
// captures from n's perspective only when used here, and uses of a
// nested literal's locals cannot appear in n).
func (p *Program) declaredIn(n *Node, obj *types.Var) bool {
	body := n.Body()
	if obj.Pos() >= body.Pos() && obj.Pos() <= body.End() {
		return true
	}
	// Receiver/parameter positions sit before the body.
	if n.Decl != nil {
		return obj.Pos() >= n.Decl.Pos() && obj.Pos() <= n.Decl.End()
	}
	return obj.Pos() >= n.Lit.Pos() && obj.Pos() <= n.Lit.End()
}

// RegionOf exposes the alias lattice to analyzers outside this
// package: the region expression e evaluates into, in n's frame.
// lockcheck uses it to exempt constructor writes (RegLocal bases) from
// the mixed plain/atomic rule.
func (p *Program) RegionOf(n *Node, e ast.Expr) Region { return p.regionOf(n, e) }

// regionOf evaluates the lattice region an expression's value points
// into.
func (p *Program) regionOf(n *Node, e ast.Expr) Region {
	info := n.Pkg.Info
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.regionOf(n, e.X)
	case *ast.Ident:
		if obj, ok := info.Uses[e].(*types.Var); ok {
			return p.classify(n, obj)
		}
		if obj, ok := info.Defs[e].(*types.Var); ok {
			return p.classify(n, obj)
		}
		return Region{Kind: RegNone}
	case *ast.SelectorExpr:
		// Qualified package var: pkg.V.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
					return Region{Kind: RegGlobal, Obj: obj}
				}
				return Region{Kind: RegShared}
			}
		}
		return p.regionOf(n, e.X)
	case *ast.IndexExpr:
		return p.regionOf(n, e.X)
	case *ast.SliceExpr:
		return p.regionOf(n, e.X)
	case *ast.StarExpr:
		return p.regionOf(n, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if r := p.regionOf(n, e.X); r.Kind != RegNone {
				return r
			}
			return Region{Kind: RegLocal}
		}
		return Region{Kind: RegNone}
	case *ast.CompositeLit:
		return Region{Kind: RegLocal}
	case *ast.TypeAssertExpr:
		return p.regionOf(n, e.X)
	case *ast.CallExpr:
		switch fn := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			switch fn.Name {
			case "make", "new":
				if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin {
					return Region{Kind: RegLocal}
				}
			case "append":
				if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin && len(e.Args) > 0 {
					// append may reallocate, but ownership follows the
					// slice being grown.
					return p.regionOf(n, e.Args[0])
				}
			}
			// Conversion T(x) keeps x's region.
			if _, isType := info.Uses[fn].(*types.TypeName); isType && len(e.Args) == 1 {
				return p.regionOf(n, e.Args[0])
			}
		}
		return Region{Kind: RegShared}
	case *ast.FuncLit:
		return Region{Kind: RegLocal}
	}
	return Region{Kind: RegNone}
}

// buildEnv computes n's local alias environment: for every local
// variable, the join of the regions ever assigned to it. Iterated to a
// fixpoint because locals can chain (a := s.m; b := a).
func (p *Program) buildEnv(n *Node) {
	n.env = map[*types.Var]Region{}
	info := n.Pkg.Info
	bind := func(id *ast.Ident, r Region) bool {
		obj, ok := info.Defs[id].(*types.Var)
		if !ok {
			obj, ok = info.Uses[id].(*types.Var)
		}
		if !ok || obj == n.recv {
			return false
		}
		// Assigning a basic value (number, string, bool) copies it: the
		// local never aliases the source's storage, so it stays RegLocal
		// no matter what it was copied from.
		if _, basic := obj.Type().Underlying().(*types.Basic); basic {
			return false
		}
		if _, isParam := n.params[obj]; isParam {
			return false
		}
		if obj.Parent() == n.Pkg.Types.Scope() {
			return false
		}
		old, seen := n.env[obj]
		nw := join(old, r)
		if !seen || nw != old {
			n.env[obj] = nw
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		n.InspectOwn(func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					var r Region
					if len(x.Rhs) == len(x.Lhs) {
						r = p.regionOf(n, x.Rhs[i])
					} else {
						// Multi-value call/assert: unknown provenance,
						// except comma-ok bools which are RegNone.
						r = Region{Kind: RegShared}
					}
					if bind(id, r) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					var r Region
					if i < len(x.Values) {
						r = p.regionOf(n, x.Values[i])
					}
					if bind(name, r) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				r := p.regionOf(n, x.X)
				for _, v := range []ast.Expr{x.Key, x.Value} {
					if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
						if bind(id, r) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
}

// collectAllocs gathers n's allocation sites.
func (p *Program) collectAllocs(n *Node) {
	info := n.Pkg.Info
	// Allocations that exist only to feed panic (error formatting,
	// &SomeError{...}) are crash paths, not steady-state work; record
	// their source ranges so they can be dropped below.
	type span struct{ lo, hi token.Pos }
	var panicArgs []span
	n.InspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, a := range x.Args {
						panicArgs = append(panicArgs, span{a.Pos(), a.End()})
					}
				}
			}
			p.callAllocs(n, x)
		case *ast.FuncLit:
			if child := p.ByLit[x]; child != nil && p.captures(child) {
				n.Allocs = append(n.Allocs, Alloc{Pos: x.Pos(), Node: n, What: "closure captures variables (heap-allocates per call)"})
			}
		case *ast.CompositeLit:
			switch x.Type.(type) {
			case *ast.ArrayType, *ast.MapType:
				n.Allocs = append(n.Allocs, Alloc{Pos: x.Pos(), Node: n, What: "composite " + exprString(x.Type) + " literal"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					n.Allocs = append(n.Allocs, Alloc{Pos: x.Pos(), Node: n, What: "address of composite literal"})
				}
			}
		}
		return true
	})
	if len(panicArgs) > 0 {
		kept := n.Allocs[:0]
		for _, a := range n.Allocs {
			cold := false
			for _, s := range panicArgs {
				if a.Pos >= s.lo && a.Pos < s.hi {
					cold = true
					break
				}
			}
			if !cold {
				kept = append(kept, a)
			}
		}
		n.Allocs = kept
	}
}

// callAllocs records the allocation sites a call introduces (make, new,
// growing append, fmt boxing).
func (p *Program) callAllocs(n *Node, call *ast.CallExpr) {
	info := n.Pkg.Info
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
			return
		}
		switch fn.Name {
		case "make":
			n.Allocs = append(n.Allocs, Alloc{Pos: call.Pos(), Node: n, What: "make" + typeArgString(call)})
		case "new":
			n.Allocs = append(n.Allocs, Alloc{Pos: call.Pos(), Node: n, What: "new" + typeArgString(call)})
		case "append":
			if len(call.Args) > 0 {
				r := p.regionOf(n, call.Args[0])
				if r.Kind == RegLocal || r.Kind == RegNone {
					n.Allocs = append(n.Allocs, Alloc{
						Pos: call.Pos(), Node: n,
						What: "append to function-local slice " + exprString(call.Args[0]) + " (allocates per call)",
					})
				}
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			if pkg, isPkg := info.Uses[id].(*types.PkgName); isPkg && pkg.Imported().Path() == "fmt" {
				n.Allocs = append(n.Allocs, Alloc{
					Pos: call.Pos(), Node: n,
					What: "fmt." + fn.Sel.Name + " (boxes arguments, allocates)",
				})
			}
		}
	}
}

// captures reports whether the literal node references any variable
// from an enclosing function frame.
func (p *Program) captures(n *Node) bool {
	info := n.Pkg.Info
	found := false
	n.InspectOwn(func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if r := p.classify(n, obj); r.Kind == RegCapture {
			found = true
		}
		return true
	})
	return found
}

// exprString renders a compact description of an expression for
// diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.ArrayType:
		return "[]" + exprString(e.Elt)
	case *ast.MapType:
		return "map[" + exprString(e.Key) + "]" + exprString(e.Value)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	}
	return "expr"
}

// typeArgString renders make/new's type argument.
func typeArgString(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return "(…)"
	}
	return "(" + exprString(call.Args[0]) + ")"
}
