package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ultracomputer/internal/lint/analysis"
)

// This file is the intraprocedural half of the analyzer: one walk per
// function body, in statement order, tracking which locks the function
// has locally acquired or released and recording every event the
// interprocedural checks need — field accesses, acquires, call sites,
// literal uses, guarded clears, branch decisions and local definitions.
//
// The local state is a delta relative to the (not yet known) entry-held
// set: a lock is exclusively held, share-held (RLock), released, or
// untouched (inherit whatever the entry set says). Branches fork the
// state and re-join by meet (weakest wins), so a lock counts as held
// after an if only when every non-terminating arm holds it. defer
// x.Unlock() is modelled as "held until function end" by simply not
// applying deferred unlocks. Loop bodies are walked once with the
// loop-entry state — balanced bodies (the overwhelming idiom) are
// exact; a net-acquiring body is approximated.

// Local lock modes (delta relative to the entry set).
const (
	modeInherit  int8 = 0 // untouched: defer to the entry-held set
	modeExcl     int8 = 1
	modeShared   int8 = 2
	modeReleased int8 = -1
)

// lockset is the local delta: absent keys mean modeInherit.
type lockset map[lockID]int8

func (s lockset) clone() lockset {
	c := make(lockset, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// rank orders modes by strength for the meet: a lock survives a join
// only as strongly as its weakest arm.
func rank(m int8) int {
	switch m {
	case modeExcl:
		return 3
	case modeShared:
		return 2
	case modeInherit:
		return 1
	}
	return 0 // released
}

// meetState joins two branch exits lock-by-lock, keeping the weaker
// mode of each.
func meetState(a, b lockset) lockset {
	out := lockset{}
	keys := map[lockID]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		m := a[k]
		if rank(b[k]) < rank(m) {
			m = b[k]
		}
		if m != modeInherit {
			out[k] = m
		}
	}
	return out
}

// access is one read or write of a struct field.
type access struct {
	field     *types.Var
	write     bool
	atomic    bool
	baseLocal bool // base object is function-local (constructor writes)
	pos       token.Pos
	held      lockset
}

// acquireEvt is one Lock/RLock call with the state before it.
type acquireEvt struct {
	lock   lockID
	shared bool
	pos    token.Pos
	held   lockset
}

// callEvt is one call site's held snapshot, matched to call-graph edges
// by position.
type callEvt struct {
	pos  token.Pos
	held lockset
}

// litEvt is one function-literal occurrence: sync means the literal is
// invoked at this point (directly, as a call argument, or deferred) and
// so inherits the surrounding held set; otherwise it is stored or go'd
// and starts from nothing.
type litEvt struct {
	held lockset
	sync bool
}

// clearEvt is a write that clears guarded state (zero/false/nil store
// or map delete) while its guard may be held — the first half of the
// lost-wakeup shape.
type clearEvt struct {
	field *types.Var
	mu    lockID
	pos   token.Pos
	seq   int
	held  lockset
}

// localDef records the last assignment to a local: where, under what
// locks, and whether the RHS read shared state (a call or a guarded
// field) — the only definitions that can go stale.
type localDef struct {
	seq        int
	held       lockset
	suspicious bool
}

// branchEvt is an if/for condition: the held set when it was decided,
// whether it re-consults shared state (contains any call), and the
// local definitions it depends on.
type branchEvt struct {
	pos     token.Pos
	seq     int
	held    lockset
	hasCall bool
	vars    []condVar
}

type condVar struct {
	name string
	def  localDef
}

// funcFacts is everything one body walk produced.
type funcFacts struct {
	n        *analysis.Node
	accesses []access
	acquires []acquireEvt
	calls    map[token.Pos]*callEvt
	lits     map[*ast.FuncLit]*litEvt
	clears   []clearEvt
	branches []branchEvt
}

type walker struct {
	c       *checker
	n       *analysis.Node
	ff      *funcFacts
	state   lockset
	defs    map[*types.Var]localDef
	seq     int
	inGo    bool
	inDefer bool
}

func walkNode(c *checker, n *analysis.Node) *funcFacts {
	w := &walker{
		c: c, n: n,
		ff:    &funcFacts{n: n, calls: map[token.Pos]*callEvt{}, lits: map[*ast.FuncLit]*litEvt{}},
		state: lockset{},
		defs:  map[*types.Var]localDef{},
	}
	w.stmt(n.Body())
	return w.ff
}

func (w *walker) next() int { w.seq++; return w.seq }

func (w *walker) snap() lockset { return w.state.clone() }

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
		for i, lhs := range s.Lhs {
			rhs := s.Rhs[0]
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			w.assignTarget(ast.Unparen(lhs), rhs)
		}
	case *ast.IncDecStmt:
		w.writeTarget(ast.Unparen(s.X), nil)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.expr(v)
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					w.defineLocal(name, rhs)
				}
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.branch(s.Cond)
		entry := w.snap()
		w.state = entry.clone()
		w.stmt(s.Body)
		thenExit, thenTerm := w.state, analysis.Terminates(s.Body)
		var elseExit lockset
		elseTerm := false
		if s.Else != nil {
			w.state = entry.clone()
			w.stmt(s.Else)
			elseExit, elseTerm = w.state, analysis.Terminates(s.Else)
		} else {
			elseExit = entry
		}
		switch {
		case thenTerm && elseTerm:
			w.state = entry
		case thenTerm:
			w.state = elseExit
		case elseTerm:
			w.state = thenExit
		default:
			w.state = meetState(thenExit, elseExit)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
			w.branch(s.Cond)
		}
		entry := w.snap()
		w.state = entry.clone()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.state = meetState(entry, w.state)
	case *ast.RangeStmt:
		w.expr(s.X)
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
				w.defineLocal(id, nil)
			}
		}
		entry := w.snap()
		w.state = entry.clone()
		w.stmt(s.Body)
		w.state = meetState(entry, w.state)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.mergeClauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.mergeClauses(s.Body)
	case *ast.SelectStmt:
		w.mergeClauses(s.Body)
	case *ast.GoStmt:
		w.inGo = true
		w.expr(s.Call)
		w.inGo = false
	case *ast.DeferStmt:
		w.inDefer = true
		w.expr(s.Call)
		w.inDefer = false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// mergeClauses runs every case/comm clause of a switch or select from
// the same entry state and meets the non-terminating exits. A missing
// default keeps the entry state in the meet (no clause may match).
func (w *walker) mergeClauses(body *ast.BlockStmt) {
	entry := w.snap()
	var exits []lockset
	hasDefault := false
	for _, cs := range body.List {
		w.state = entry.clone()
		var stmts []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			for _, e := range cs.List {
				w.expr(e)
			}
			stmts = cs.Body
		case *ast.CommClause:
			if cs.Comm == nil {
				hasDefault = true
			}
			w.stmt(cs.Comm)
			stmts = cs.Body
		}
		term := false
		for _, st := range stmts {
			w.stmt(st)
		}
		if len(stmts) > 0 {
			term = analysis.Terminates(&ast.BlockStmt{List: stmts})
		}
		if !term {
			exits = append(exits, w.state)
		}
	}
	if !hasDefault {
		exits = append(exits, entry)
	}
	if len(exits) == 0 {
		w.state = entry
		return
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = meetState(out, e)
	}
	w.state = out
}

// assignTarget handles one LHS of an assignment: a local definition or
// a memory write.
func (w *walker) assignTarget(lhs ast.Expr, rhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok {
		w.defineLocal(id, rhs)
		return
	}
	w.writeTarget(lhs, rhs)
}

// defineLocal records a local variable (re)definition for the stale
// re-check rule.
func (w *walker) defineLocal(id *ast.Ident, rhs ast.Expr) {
	if id.Name == "_" {
		return
	}
	info := w.n.Pkg.Info
	obj, ok := info.Defs[id].(*types.Var)
	if !ok {
		obj, ok = info.Uses[id].(*types.Var)
	}
	if !ok {
		return
	}
	if w.c.prog.Outer(w.n, obj) {
		// Rebinding a global/captured name is not a local definition.
		return
	}
	w.defs[obj] = localDef{seq: w.next(), held: w.snap(), suspicious: w.rhsSuspicious(rhs)}
}

// rhsSuspicious reports whether an expression reads shared state — a
// call, or a guarded field — and can therefore go stale.
func (w *walker) rhsSuspicious(rhs ast.Expr) bool {
	if rhs == nil {
		return false
	}
	info := w.n.Pkg.Info
	found := false
	ast.Inspect(rhs, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			found = true
			return false
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				if _, guarded := w.c.gt.byField[v]; guarded {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// writeTarget records a write access for a selector/index/star LHS.
func (w *walker) writeTarget(lhs ast.Expr, rhs ast.Expr) {
	switch t := lhs.(type) {
	case *ast.SelectorExpr:
		if f := w.fieldVar(t); f != nil {
			w.recordAccess(t, f, true, false)
			w.maybeClear(f, t.Pos(), rhs)
			w.expr(t.X)
			return
		}
		w.expr(t.X)
	case *ast.IndexExpr:
		// s.queued[k] = v writes the map held in the field.
		if sel, ok := ast.Unparen(t.X).(*ast.SelectorExpr); ok {
			if f := w.fieldVar(sel); f != nil {
				w.recordAccess(sel, f, true, false)
				w.maybeClear(f, sel.Pos(), rhs)
				w.expr(sel.X)
				w.expr(t.Index)
				return
			}
		}
		w.expr(t.X)
		w.expr(t.Index)
	case *ast.StarExpr:
		w.expr(t.X)
	}
}

// maybeClear records a clear event when rhs stores a zero value into a
// guarded field while its guard is locally held.
func (w *walker) maybeClear(f *types.Var, pos token.Pos, rhs ast.Expr) {
	g, guarded := w.c.gt.byField[f]
	if !guarded {
		return
	}
	if rhs != nil && !isZeroish(rhs) {
		return
	}
	w.ff.clears = append(w.ff.clears, clearEvt{
		field: f, mu: g.mu, pos: pos, seq: w.next(), held: w.snap(),
	})
}

// isZeroish matches false, 0, nil and "" — the stores that clear a
// flag rather than set it.
func isZeroish(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "false" || e.Name == "nil"
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""`
	}
	return false
}

// fieldVar resolves a selector to the struct field it names, nil when
// it is not a field access.
func (w *walker) fieldVar(sel *ast.SelectorExpr) *types.Var {
	if v, ok := w.n.Pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// recordAccess appends one field access with the current held state.
func (w *walker) recordAccess(sel *ast.SelectorExpr, f *types.Var, write, atomic bool) {
	w.ff.accesses = append(w.ff.accesses, access{
		field: f, write: write, atomic: atomic,
		baseLocal: w.c.prog.RegionOf(w.n, sel.X) != analysis.RegShared,
		pos:       sel.Pos(), held: w.snap(),
	})
}

// branch records a condition decision point.
func (w *walker) branch(cond ast.Expr) {
	if cond == nil {
		return
	}
	info := w.n.Pkg.Info
	evt := branchEvt{pos: cond.Pos(), seq: w.next(), held: w.snap()}
	ast.Inspect(cond, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			evt.hasCall = true
		case *ast.Ident:
			if obj, ok := info.Uses[x].(*types.Var); ok {
				if def, ok := w.defs[obj]; ok {
					evt.vars = append(evt.vars, condVar{name: x.Name, def: def})
				}
			}
		}
		return true
	})
	w.ff.branches = append(w.ff.branches, evt)
}

func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.SelectorExpr:
		if f := w.fieldVar(e); f != nil {
			w.recordAccess(e, f, false, false)
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value)
				continue
			}
			w.expr(el)
		}
	case *ast.FuncLit:
		w.ff.lits[e] = &litEvt{held: w.snap(), sync: false}
	}
}

// call classifies one call expression: lock operation, atomic access
// (function or method style), builtin delete, or a plain call site.
func (w *walker) call(x *ast.CallExpr) {
	info := w.n.Pkg.Info
	fun := ast.Unparen(x.Fun)

	// Builtin delete on a guarded map field.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "delete" && len(x.Args) >= 1 {
			if sel, ok := ast.Unparen(x.Args[0]).(*ast.SelectorExpr); ok {
				if f := w.fieldVar(sel); f != nil {
					w.recordAccess(sel, f, true, false)
					w.maybeClear(f, sel.Pos(), nil)
					w.expr(sel.X)
					for _, a := range x.Args[1:] {
						w.expr(a)
					}
					return
				}
			}
		}
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		// atomic.StoreInt64(&s.f, v) / atomic.LoadInt64(&s.f) style.
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, isPkg := info.Uses[id].(*types.PkgName); isPkg && pn.Imported().Path() == "sync/atomic" && len(x.Args) >= 1 {
				write := !strings.HasPrefix(sel.Sel.Name, "Load")
				if un, ok := ast.Unparen(x.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
					if fsel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
						if f := w.fieldVar(fsel); f != nil {
							w.recordAccess(fsel, f, write, true)
							w.expr(fsel.X)
							for _, a := range x.Args[1:] {
								w.expr(a)
							}
							return
						}
					}
				}
			}
		}
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			// s.flag.Store(v) method style on atomic.Bool/Int64/Pointer…
			if obj.Pkg().Path() == "sync/atomic" {
				write := sel.Sel.Name != "Load"
				if fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					if f := w.fieldVar(fsel); f != nil {
						w.recordAccess(fsel, f, write, true)
						w.expr(fsel.X)
						for _, a := range x.Args {
							w.expr(a)
						}
						return
					}
				}
			}
			// Mutex operations.
			if obj.Pkg().Path() == "sync" && isMutexRecv(obj) {
				if l := w.lockTarget(sel.X); l != nil {
					w.lockOp(l, sel.Sel.Name, x.Pos())
					if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
						w.expr(inner.X)
					}
					return
				}
			}
		}
	}

	// Plain call site.
	w.ff.calls[x.Pos()] = &callEvt{pos: x.Pos(), held: w.snap()}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		w.ff.lits[fun] = &litEvt{held: w.snap(), sync: !w.inGo}
	case *ast.SelectorExpr:
		if f := w.fieldVar(fun); f != nil {
			// Calling a func-typed field reads it.
			w.recordAccess(fun, f, false, false)
		}
		w.expr(fun.X)
	}
	for _, a := range x.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			w.ff.lits[lit] = &litEvt{held: w.snap(), sync: !w.inGo}
			continue
		}
		w.expr(a)
	}
}

// isMutexRecv reports whether obj is a method of sync.Mutex/RWMutex.
func isMutexRecv(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isMutexType(sig.Recv().Type())
}

// lockTarget resolves the mutex operand of a Lock/Unlock call to its
// identity variable: a struct field (instance-insensitive) or a plain
// variable.
func (w *walker) lockTarget(x ast.Expr) lockID {
	info := w.n.Pkg.Info
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.StarExpr:
		return w.lockTarget(x.X)
	}
	return nil
}

// lockOp applies one mutex operation to the local state.
func (w *walker) lockOp(l lockID, op string, pos token.Pos) {
	switch op {
	case "Lock", "TryLock":
		if w.inDefer {
			return
		}
		w.ff.acquires = append(w.ff.acquires, acquireEvt{lock: l, pos: pos, held: w.snap()})
		w.state[l] = modeExcl
	case "RLock", "TryRLock":
		if w.inDefer {
			return
		}
		w.ff.acquires = append(w.ff.acquires, acquireEvt{lock: l, shared: true, pos: pos, held: w.snap()})
		if w.state[l] != modeExcl {
			w.state[l] = modeShared
		}
	case "Unlock", "RUnlock":
		// A deferred unlock runs at return: the lock stays held for the
		// rest of the body, which is exactly what not applying it models.
		if w.inDefer {
			return
		}
		w.state[l] = modeReleased
	}
}
