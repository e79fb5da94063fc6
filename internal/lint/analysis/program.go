package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is a whole-module view for interprocedural analyzers: every
// loaded package, a call graph whose nodes are function bodies (declared
// functions, methods and function literals), per-node alias
// environments and allocation sites (regions.go) and the //ultravet:ok
// suppression table.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Nodes []*Node // deterministic: sorted by source position
	ByObj map[*types.Func]*Node
	ByLit map[*ast.FuncLit]*Node

	// suppress[analyzer][filename][line] marks //ultravet:ok lines.
	suppress map[string]map[string]map[int]bool
}

// EdgeKind classifies how a call-graph edge was discovered.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeDynamic is an interface method call resolved by class-hierarchy
	// analysis: one edge per concrete method in the program whose
	// receiver type implements the interface.
	EdgeDynamic
	// EdgeContains links a function to a literal declared inside it. The
	// literal may run later, elsewhere (a defer, a phase runner); the
	// edge keeps its reachability attributed to the code that built it.
	EdgeContains
)

// Edge is one call-graph edge.
type Edge struct {
	Pos    token.Pos
	Kind   EdgeKind
	Callee *Node
	// Go marks a call that is the operand of a `go` statement: the
	// callee starts on a fresh goroutine, so it inherits none of the
	// caller's execution context (held locks in particular).
	Go bool
}

// Node is one function body in the program.
type Node struct {
	Obj    *types.Func   // nil for literals
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declarations
	Pkg    *Package
	Parent *Node // enclosing node, literals only
	Calls  []Edge

	name string

	// Alias environment and allocation sites (regions.go).
	recv   *types.Var
	params map[*types.Var]bool
	env    map[*types.Var]Region
	Allocs []Alloc
}

// Name returns a stable human-readable identifier: pkg.Func,
// pkg.(Recv).Method, or parent·funcN for the N-th literal of parent.
func (n *Node) Name() string { return n.name }

// Body returns the node's own statement list.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// FuncType returns the node's signature syntax.
func (n *Node) FuncType() *ast.FuncType {
	if n.Decl != nil {
		return n.Decl.Type
	}
	return n.Lit.Type
}

// Pos returns the declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// InspectOwn walks the node's own body, skipping nested function
// literals (each literal is its own Node).
func (n *Node) InspectOwn(f func(ast.Node) bool) {
	skip := n.Body()
	ast.Inspect(skip, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && (n.Lit == nil || lit != n.Lit) {
			// Visit the literal node itself (it is an expression of this
			// frame — e.g. a closure allocation site) but not its body.
			f(x)
			return false
		}
		return f(x)
	})
}

// BuildProgram indexes pkgs into a Program: nodes, call graph, alias
// environments, allocation sites and suppressions. Packages should be passed in a
// deterministic order (the loader's callers sort by import path).
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:     pkgs,
		ByObj:    map[*types.Func]*Node{},
		ByLit:    map[*ast.FuncLit]*Node{},
		suppress: map[string]map[string]map[int]bool{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}

	// Pass 1: one node per declared function/method, then one per
	// literal, parented to the innermost enclosing node.
	for _, pkg := range pkgs {
		p.scanSuppressions(pkg)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Obj: obj, Decl: fd, Pkg: pkg, name: funcName(pkg, obj)}
				p.Nodes = append(p.Nodes, n)
				p.ByObj[obj] = n
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						p.addLiterals(p.ByObj[obj], fd.Body)
					}
				}
			}
		}
	}
	sort.Slice(p.Nodes, func(i, j int) bool {
		a, b := p.Fset.Position(p.Nodes[i].Pos()), p.Fset.Position(p.Nodes[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	// Pass 2: call-graph edges.
	methods := p.methodIndex()
	for _, n := range p.Nodes {
		p.addEdges(n, methods)
	}

	// Pass 3: alias environments and allocation sites (regions.go).
	p.buildRegions()
	return p
}

// addLiterals creates nodes for the literals inside body (recursively),
// parented to the innermost enclosing node.
func (p *Program) addLiterals(parent *Node, body ast.Node) {
	count := 0
	ast.Inspect(body, func(x ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		if parent.Lit != nil && lit == parent.Lit {
			return true
		}
		count++
		n := &Node{
			Lit: lit, Pkg: parent.Pkg, Parent: parent,
			name: fmt.Sprintf("%s·func%d", parent.name, count),
		}
		p.Nodes = append(p.Nodes, n)
		p.ByLit[lit] = n
		p.addLiterals(n, lit.Body)
		return false // literals inside lit belong to n, not parent
	})
}

// funcName renders pkgname.Func or pkgname.(Recv).Method.
func funcName(pkg *Package, obj *types.Func) string {
	name := pkg.Types.Name() + "."
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return name + "(" + named.Obj().Name() + ")." + obj.Name()
		}
	}
	return name + obj.Name()
}

// methodIndex maps method name -> concrete methods declared in the
// program, for class-hierarchy resolution of interface calls.
func (p *Program) methodIndex() map[string][]*types.Func {
	idx := map[string][]*types.Func{}
	for _, n := range p.Nodes {
		if n.Obj == nil {
			continue
		}
		if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); !isIface {
				idx[n.Obj.Name()] = append(idx[n.Obj.Name()], n.Obj)
			}
		}
	}
	return idx
}

// addEdges discovers n's outgoing calls: static calls, CHA-resolved
// interface calls, directly invoked literals, and containment edges to
// the literals declared in n.
func (p *Program) addEdges(n *Node, methods map[string][]*types.Func) {
	info := n.Pkg.Info
	// Calls that are the direct operand of a go statement carry that
	// context on their edges (lock-discipline analyzers need it: a go'd
	// callee starts with nothing held).
	goCalls := map[*ast.CallExpr]bool{}
	n.InspectOwn(func(x ast.Node) bool {
		if g, ok := x.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	n.InspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if child := p.ByLit[x]; child != nil {
				n.Calls = append(n.Calls, Edge{Pos: x.Pos(), Kind: EdgeContains, Callee: child})
			}
			return true
		case *ast.CallExpr:
			isGo := goCalls[x]
			fun := ast.Unparen(x.Fun)
			switch fun := fun.(type) {
			case *ast.Ident:
				if obj, ok := info.Uses[fun].(*types.Func); ok {
					if callee := p.ByObj[obj.Origin()]; callee != nil {
						n.Calls = append(n.Calls, Edge{Pos: x.Pos(), Kind: EdgeStatic, Callee: callee, Go: isGo})
					}
				}
			case *ast.SelectorExpr:
				obj, ok := info.Uses[fun.Sel].(*types.Func)
				if !ok {
					return true
				}
				if sel, isSel := info.Selections[fun]; isSel {
					if iface, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
						p.addDynamicEdges(n, x, fun.Sel.Name, iface, methods, isGo)
						return true
					}
				}
				if callee := p.ByObj[obj.Origin()]; callee != nil {
					n.Calls = append(n.Calls, Edge{Pos: x.Pos(), Kind: EdgeStatic, Callee: callee, Go: isGo})
				}
			case *ast.FuncLit:
				if callee := p.ByLit[fun]; callee != nil {
					n.Calls = append(n.Calls, Edge{Pos: x.Pos(), Kind: EdgeStatic, Callee: callee, Go: isGo})
				}
			}
		}
		return true
	})
}

// addDynamicEdges links an interface method call to every concrete
// method in the program whose receiver type implements the interface.
func (p *Program) addDynamicEdges(n *Node, call *ast.CallExpr, name string, iface *types.Interface, methods map[string][]*types.Func, isGo bool) {
	for _, m := range methods[name] {
		recv := m.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) ||
			types.Implements(types.NewPointer(recv), iface) {
			n.Calls = append(n.Calls, Edge{Pos: call.Pos(), Kind: EdgeDynamic, Callee: p.ByObj[m], Go: isGo})
		}
	}
}

// scanSuppressions records //ultravet:ok <analyzer> <reason> comment
// lines for the package's files.
func (p *Program) scanSuppressions(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "ultravet:ok") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "ultravet:ok"))
				if len(fields) == 0 {
					continue // malformed: no analyzer named
				}
				analyzer := fields[0]
				pos := pkg.Fset.Position(c.Pos())
				byFile := p.suppress[analyzer]
				if byFile == nil {
					byFile = map[string]map[int]bool{}
					p.suppress[analyzer] = byFile
				}
				lines := byFile[pos.Filename]
				if lines == nil {
					lines = map[int]bool{}
					byFile[pos.Filename] = lines
				}
				lines[pos.Line] = true
			}
		}
	}
}

// Suppressed reports whether pos (its line, or the line above it) is
// annotated //ultravet:ok for the analyzer.
func (p *Program) Suppressed(analyzer string, pos token.Pos) bool {
	if p.Fset == nil || !pos.IsValid() {
		return false
	}
	pp := p.Fset.Position(pos)
	lines := p.suppress[analyzer][pp.Filename]
	return lines[pp.Line] || lines[pp.Line-1]
}

// Reachable computes the transitive closure of the call graph from the
// given roots. follow, when non-nil, can prune traversal of an edge (it
// receives the caller and edge); used for cold-call boundaries.
func (p *Program) Reachable(roots []*Node, follow func(*Node, Edge) bool) map[*Node]bool {
	seen := map[*Node]bool{}
	var work []*Node
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.Calls {
			if follow != nil && !follow(n, e) {
				continue
			}
			if !seen[e.Callee] {
				seen[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	return seen
}

// PathTo returns a shortest call chain (by edge count) from any root to
// target, as "a → b → c"; both search order and result are
// deterministic because nodes and edges are visited in source order.
func (p *Program) PathTo(roots []*Node, target *Node, follow func(*Node, Edge) bool) string {
	parent := map[*Node]*Node{}
	var queue []*Node
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := parent[r]; !ok {
			parent[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == target {
			var names []string
			for c := n; c != nil; c = parent[c] {
				names = append(names, c.Name())
			}
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
			return strings.Join(names, " → ")
		}
		for _, e := range n.Calls {
			if follow != nil && !follow(n, e) {
				continue
			}
			if _, ok := parent[e.Callee]; !ok {
				parent[e.Callee] = n
				queue = append(queue, e.Callee)
			}
		}
	}
	return target.Name()
}
