// Package probegate enforces guard domination of observability call
// sites: with nobody listening the hot paths must pay one test and build
// no event. One analyzer, two rules.
//
// Every call p.Emit(ev) on a value of static type obs.Probe must be
// dominated by a guard of one of two shapes. The first is a nil check of
// the same expression — an enclosing `if p != nil { ... }` or an earlier
// `if p == nil { return }` in the same block. The second is the audience
// mask of the network, memory, PE and cache emit sites, whose destination
// is never nil-tested because the mask already says whether anybody
// listens:
//
//	if to := sk.subs.For(kind, traced); to != 0 {
//		sk.out.Emit(obs.Event{To: to, ...})
//	}
//
// that is, an enclosing if that defines a variable from an obs.Subs.For
// call and tests it non-zero, around an Emit of an obs.Event literal
// addressed To that variable. An unguarded Emit either panics when the
// probe is detached or, worse, forces the caller to build the Event
// unconditionally, breaking the zero-alloc guarantee the obs benchmarks
// pin down.
//
// Every sampling call t.ContextFor(id) or t.Emit(ev) on a
// *reqtrace.Tracer must be dominated by a nil check of the same
// expression: request tracing is off by default (a nil tracer) and an
// untraced run pays exactly that check.
package probegate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ultracomputer/internal/lint/analysis"
)

const (
	obsPath      = "ultracomputer/internal/obs"
	reqtracePath = "ultracomputer/internal/obs/reqtrace"
)

// rule is one instantiation of the guard walker: which receiver types
// and method names must be dominated by a guard, which package is exempt
// (the one implementing the guarded type, whose methods run with a
// known-non-nil receiver), whether the audience-mask guard counts, and
// the diagnostic text (one %s verb for the receiver expression).
type rule struct {
	methods  map[string]bool
	isTarget func(types.Type) bool
	skipPkg  string
	mask     bool
	message  string
}

var rules = []rule{
	{
		methods:  map[string]bool{"Emit": true},
		isTarget: func(t types.Type) bool { return isNamed(t, obsPath, "Probe") },
		mask:     true,
		message: "obs.Probe Emit on %s without a dominating nil check: a detached probe is nil, " +
			"and the zero-alloc contract requires guarding before building the event",
	},
	{
		methods:  map[string]bool{"ContextFor": true, "Emit": true},
		isTarget: func(t types.Type) bool { return isNamed(t, reqtracePath, "Tracer") },
		skipPkg:  reqtracePath,
		message: "reqtrace sampling call on %s without a dominating nil check: " +
			"tracing is off by default (nil tracer) and an untraced run must pay only the check",
	},
}

// Analyzer is the probegate pass.
var Analyzer = &analysis.Analyzer{
	Name: "probegate",
	Doc: "require every obs.Probe Emit call site to be guarded by a nil check of the probe or by a " +
		"non-zero obs.Subs.For audience, and every reqtrace sampling call site (ContextFor, Emit) " +
		"by a nil check of the tracer",
	RunProgram: func(prog *analysis.ProgramPass) error {
		for i := range rules {
			r := &rules[i]
			for _, pkg := range prog.Prog.Pkgs {
				if r.skipPkg != "" && strings.HasPrefix(pkg.Types.Path(), r.skipPkg) {
					continue
				}
				pass := &pkgPass{ProgramPass: prog, TypesInfo: pkg.Info}
				for _, f := range pkg.Files {
					for _, d := range f.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
							checkBlock(pass, r, fd.Body.List, map[string]bool{})
						}
					}
				}
			}
		}
		return nil
	},
}

// pkgPass is the program pass plus the type information of the package
// whose statements are being walked.
type pkgPass struct {
	*analysis.ProgramPass
	TypesInfo *types.Info
}

// checkBlock walks one statement list in order, threading the set of
// guarded expressions (rendered as source text) known to be non-nil.
func checkBlock(pass *pkgPass, rule *rule, stmts []ast.Stmt, guarded map[string]bool) {
	for _, s := range stmts {
		checkStmt(pass, rule, s, guarded)
		// An early return on nil (`if p == nil { return }`) guards the
		// rest of the block.
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && analysis.Terminates(ifs.Body) {
			if expr := nilCheckedTarget(pass, rule, ifs.Cond, true); expr != "" {
				guarded = withGuard(guarded, expr)
			}
		}
	}
}

// checkStmt dispatches one statement, recursing into nested blocks with
// the appropriate guard set.
func checkStmt(pass *pkgPass, rule *rule, s ast.Stmt, guarded map[string]bool) {
	switch s := s.(type) {
	case nil:
	case *ast.IfStmt:
		if s.Init != nil {
			checkStmt(pass, rule, s.Init, guarded)
		}
		checkExpr(pass, rule, s.Cond, guarded)
		thenGuards := guarded
		if expr := nilCheckedTarget(pass, rule, s.Cond, false); expr != "" {
			thenGuards = withGuard(guarded, expr)
		} else if v := audienceVar(pass, rule, s); v != "" {
			thenGuards = withGuard(guarded, maskKey+v)
		}
		checkBlock(pass, rule, s.Body.List, thenGuards)
		if s.Else != nil {
			elseGuards := guarded
			if expr := nilCheckedTarget(pass, rule, s.Cond, true); expr != "" {
				elseGuards = withGuard(guarded, expr)
			}
			checkStmt(pass, rule, s.Else, elseGuards)
		}
	case *ast.BlockStmt:
		checkBlock(pass, rule, s.List, guarded)
	case *ast.ForStmt:
		if s.Init != nil {
			checkStmt(pass, rule, s.Init, guarded)
		}
		if s.Cond != nil {
			checkExpr(pass, rule, s.Cond, guarded)
		}
		if s.Post != nil {
			checkStmt(pass, rule, s.Post, guarded)
		}
		checkBlock(pass, rule, s.Body.List, guarded)
	case *ast.RangeStmt:
		checkExpr(pass, rule, s.X, guarded)
		checkBlock(pass, rule, s.Body.List, guarded)
	case *ast.SwitchStmt:
		if s.Init != nil {
			checkStmt(pass, rule, s.Init, guarded)
		}
		if s.Tag != nil {
			checkExpr(pass, rule, s.Tag, guarded)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				checkExpr(pass, rule, e, guarded)
			}
			checkBlock(pass, rule, cc.Body, guarded)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			checkBlock(pass, rule, c.(*ast.CaseClause).Body, guarded)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			checkBlock(pass, rule, c.(*ast.CommClause).Body, guarded)
		}
	case *ast.LabeledStmt:
		checkStmt(pass, rule, s.Stmt, guarded)
	default:
		checkExpr(pass, rule, s, guarded) // a leaf statement
	}
}

// checkExpr scans a leaf statement or an expression (conditions, range
// operands) for guarded calls and for nested function literals, which
// start unguarded.
func checkExpr(pass *pkgPass, rule *rule, e ast.Node, guarded map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkBlock(pass, rule, n.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			reportUnguardedCall(pass, rule, n, guarded)
		}
		return true
	})
}

// reportUnguardedCall flags call if it invokes one of the rule's methods
// on an unguarded target expression.
func reportUnguardedCall(pass *pkgPass, rule *rule, call *ast.CallExpr, guarded map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !rule.methods[sel.Sel.Name] {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !rule.isTarget(tv.Type) {
		return
	}
	expr := types.ExprString(sel.X)
	if guarded[expr] || guarded[maskKey+addressee(call)] {
		return
	}
	pass.Reportf(call.Pos(), "", rule.message, expr)
}

// maskKey prefixes the guard-set entry of an audience variable, keeping
// it apart from the nil-checked expressions.
const maskKey = "To: "

// audienceVar recognizes the audience-mask guard
//
//	if v := <obs.Subs expression calling For>; v != 0 {
//
// (the test possibly one && conjunct) and returns v.
func audienceVar(pass *pkgPass, rule *rule, s *ast.IfStmt) string {
	def, ok := s.Init.(*ast.AssignStmt)
	if !rule.mask || !ok || def.Tok != token.DEFINE || len(def.Lhs) != 1 || len(def.Rhs) != 1 {
		return ""
	}
	v, rhs := types.ExprString(def.Lhs[0]), def.Rhs[0]
	if !isNamed(pass.TypesInfo.Types[rhs].Type, obsPath, "Subs") || !strings.Contains(types.ExprString(rhs), ".For(") {
		return ""
	}
	return comparedTarget(s.Cond, "0", false, func(x ast.Expr) bool { return types.ExprString(x) == v })
}

// addressee returns v when call's one argument is a composite literal
// with a `To: v` field — the event an audience-mask guard licenses.
func addressee(call *ast.CallExpr) string {
	if len(call.Args) == 1 {
		if lit, ok := call.Args[0].(*ast.CompositeLit); ok {
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && types.ExprString(kv.Key) == "To" {
					return types.ExprString(kv.Value)
				}
			}
		}
	}
	return ""
}

// nilCheckedTarget reports the target expression a condition proves
// non-nil. With wantNil false it matches `x != nil` (possibly a && ...
// conjunct); with wantNil true it matches a bare `x == nil`.
func nilCheckedTarget(pass *pkgPass, rule *rule, cond ast.Expr, wantNil bool) string {
	return comparedTarget(cond, "nil", wantNil, func(x ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[x]
		return ok && rule.isTarget(tv.Type)
	})
}

// comparedTarget reports the expression x, if accept takes it, that cond
// compares with the literal zero: `x != zero`, possibly as one &&
// conjunct, or with eq set a bare `x == zero`.
func comparedTarget(cond ast.Expr, zero string, eq bool, accept func(ast.Expr) bool) string {
	c, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return ""
	}
	if !eq && c.Op == token.LAND {
		if e := comparedTarget(c.X, zero, false, accept); e != "" {
			return e
		}
		return comparedTarget(c.Y, zero, false, accept)
	}
	if (eq && c.Op != token.EQL) || (!eq && c.Op != token.NEQ) {
		return ""
	}
	x, y := c.X, c.Y
	if types.ExprString(x) == zero {
		x, y = y, x
	}
	if types.ExprString(y) != zero || !accept(x) {
		return ""
	}
	return types.ExprString(x)
}

// isNamed reports whether t (or the type a pointer t points to) is the
// named type path.name.
func isNamed(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name &&
		obj.Pkg() != nil && obj.Pkg().Path() == path
}

// withGuard returns guarded plus expr, copying so sibling branches are
// unaffected.
func withGuard(guarded map[string]bool, expr string) map[string]bool {
	out := make(map[string]bool, len(guarded)+1)
	for k := range guarded {
		out[k] = true
	}
	out[expr] = true
	return out
}
