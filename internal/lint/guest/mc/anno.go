// Annotation syntax for guest-ISA model checking. Properties live in
// ordinary assembler comments so the programs assemble unchanged; a
// comment beginning `;mc:` (anywhere on a line) declares one directive:
//
//	;mc: invariant <expr>        checked in every explored state
//	;mc: final <expr>            checked once every PE has halted
//	;mc: assert <expr>           on an instruction line: checked whenever
//	                             a PE is at that instruction (may read the
//	                             PE's integer registers r0..r31)
//	;mc: region <name> <lo> <hi> names the pc range [lo, hi) between two
//	                             labels
//	;mc: noconcur <a> <b>        no two distinct PEs simultaneously inside
//	                             regions a and b (a == b: at most one PE
//	                             inside a — mutual exclusion)
//	;mc: bound <n>               the largest PE count the program is
//	                             tractable at; checks requesting more PEs
//	                             are capped (data-parallel loops explode
//	                             combinatorially without being coordination
//	                             algorithms)
//
// A directive ends at the next `;`, so a trailing assembler comment is
// allowed. Expressions are Go expressions, parsed by go/parser with Go's
// precedence and integer literals, narrowed to + - * / % (division by
// zero is 0, like the ISA), comparisons == != < <= > >= (not chained),
// && || and unary minus over the atoms: npes (the PE count under check),
// pe (the evaluating PE, asserts only), r<N> (that PE's integer register,
// asserts only) and M[<expr>] (a shared-memory word). Booleans are 0/1,
// so invariants are written as expressions that must stay nonzero.
//
// A line `;ultravet:ok guestmc <reason>` anywhere in the file suppresses
// the checker's findings for that file (the guest-side analogue of the
// Go-source //ultravet:ok marker).
package mc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"ultracomputer/internal/isa"
)

// Prop is one boolean property: an expression that must evaluate nonzero.
type Prop struct {
	Src  string // the expression's source text
	Line int    // 1-based source line of the annotation
	root *node
}

// Region is a named pc range [Lo, Hi).
type Region struct {
	Name   string
	Lo, Hi int
	Line   int
}

// Annotations is the parsed `;mc:` property set of one program.
type Annotations struct {
	Invariants []Prop
	Finals     []Prop
	Asserts    map[int][]Prop // pc -> assertions at that instruction
	Regions    map[string]Region
	NoConcur   [][2]string
	// Bound caps the PE count the program is checked at (0: no cap).
	Bound int
	// Suppressed carries the `;ultravet:ok guestmc <reason>` marker, when
	// present: findings for this file are intentionally accepted.
	Suppressed     bool
	SuppressReason string
}

// HasProps reports whether any property beyond the built-in checks
// (deadlock, lost update) was declared.
func (a *Annotations) HasProps() bool {
	return len(a.Invariants)+len(a.Finals)+len(a.Asserts)+len(a.NoConcur) > 0
}

// ParseAnnotations extracts the `;mc:` directives of src, resolving
// labels and instruction lines against the assembled program.
func ParseAnnotations(src string, prog *isa.Program) (*Annotations, error) {
	a := &Annotations{Asserts: map[int][]Prop{}, Regions: map[string]Region{}}
	pcOfLine := map[int]int{}
	for pc, line := range prog.Lines {
		pcOfLine[line] = pc
	}
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		if j := strings.Index(raw, ";ultravet:ok"); j >= 0 {
			rest := strings.TrimSpace(raw[j+len(";ultravet:ok"):])
			name, reason, _ := strings.Cut(rest, " ")
			if name == "guestmc" {
				a.Suppressed = true
				a.SuppressReason = strings.TrimSpace(reason)
			}
			continue
		}
		j := strings.Index(raw, ";mc:")
		if j < 0 {
			continue
		}
		// The directive ends where an assembler comment after it starts.
		text, _, _ := strings.Cut(raw[j+len(";mc:"):], ";")
		dir, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
		rest = strings.TrimSpace(rest)
		switch dir {
		case "invariant", "final":
			root, err := parseExpr(rest, false)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s: %v", line, dir, err)
			}
			p := Prop{Src: rest, Line: line, root: root}
			if dir == "invariant" {
				a.Invariants = append(a.Invariants, p)
			} else {
				a.Finals = append(a.Finals, p)
			}
		case "assert":
			root, err := parseExpr(rest, true)
			if err != nil {
				return nil, fmt.Errorf("line %d: assert: %v", line, err)
			}
			pc, ok := pcOfLine[line]
			if !ok {
				return nil, fmt.Errorf("line %d: assert must share a line with an instruction", line)
			}
			a.Asserts[pc] = append(a.Asserts[pc], Prop{Src: rest, Line: line, root: root})
		case "region":
			f := strings.Fields(rest)
			if len(f) != 3 {
				return nil, fmt.Errorf("line %d: region wants <name> <startLabel> <endLabel>", line)
			}
			lo, ok := prog.Labels[f[1]]
			if !ok {
				return nil, fmt.Errorf("line %d: region %s: unknown label %q", line, f[0], f[1])
			}
			hi, ok := prog.Labels[f[2]]
			if !ok {
				return nil, fmt.Errorf("line %d: region %s: unknown label %q", line, f[0], f[2])
			}
			if hi <= lo {
				return nil, fmt.Errorf("line %d: region %s: empty range [%d, %d)", line, f[0], lo, hi)
			}
			if _, dup := a.Regions[f[0]]; dup {
				return nil, fmt.Errorf("line %d: duplicate region %q", line, f[0])
			}
			if len(a.Regions) == 64 { // the checker gives each region one bit of a uint64
				return nil, fmt.Errorf("line %d: region %s: more than 64 regions", line, f[0])
			}
			a.Regions[f[0]] = Region{Name: f[0], Lo: lo, Hi: hi, Line: line}
		case "bound":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("line %d: bound wants a positive PE count, got %q", line, rest)
			}
			a.Bound = n
		case "noconcur":
			f := strings.Fields(rest)
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: noconcur wants <regionA> <regionB>", line)
			}
			a.NoConcur = append(a.NoConcur, [2]string{f[0], f[1]})
		default:
			return nil, fmt.Errorf("line %d: unknown ;mc: directive %q", line, dir)
		}
	}
	for _, nc := range a.NoConcur {
		for _, name := range nc {
			if _, ok := a.Regions[name]; !ok {
				return nil, fmt.Errorf("noconcur references undefined region %q", name)
			}
		}
	}
	return a, nil
}

// regRefs collects the integer registers an assert expression reads, for
// the liveness analysis (asserted registers must survive to their pc).
func (p Prop) regRefs() []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.kind == nReg {
			out = append(out, int(n.val))
		}
		walk(n.a)
		walk(n.b)
	}
	walk(p.root)
	sort.Ints(out)
	return out
}

// --- expression AST ---

type nodeKind uint8

const (
	nLit nodeKind = iota
	nNPEs
	nPE
	nReg
	nMem
	nNeg
	nBin
)

type node struct {
	kind nodeKind
	op   string // nBin operator
	a, b *node
	val  int64 // nLit value / nReg index
}

// EvalCtx supplies an expression's environment: shared memory, and — for
// asserts — one PE's identity and integer registers.
type EvalCtx struct {
	NPEs int
	PE   int
	Mem  func(int64) int64
	Reg  func(int) int64
}

// Eval computes the expression; booleans are 0/1.
func (p Prop) Eval(ctx *EvalCtx) int64 { return p.root.eval(ctx) }

// Holds reports whether the property evaluates nonzero.
func (p Prop) Holds(ctx *EvalCtx) bool { return p.root.eval(ctx) != 0 }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (n *node) eval(ctx *EvalCtx) int64 {
	switch n.kind {
	case nLit:
		return n.val
	case nNPEs:
		return int64(ctx.NPEs)
	case nPE:
		return int64(ctx.PE)
	case nReg:
		return ctx.Reg(int(n.val))
	case nMem:
		return ctx.Mem(n.a.eval(ctx))
	case nNeg:
		return -n.a.eval(ctx)
	}
	a := n.a.eval(ctx)
	// Short-circuit the logical operators.
	switch n.op {
	case "&&":
		if a == 0 {
			return 0
		}
		return b2i(n.b.eval(ctx) != 0)
	case "||":
		if a != 0 {
			return 1
		}
		return b2i(n.b.eval(ctx) != 0)
	}
	b := n.b.eval(ctx)
	switch n.op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		if b == 0 {
			return 0
		}
		return a / b
	case "%":
		if b == 0 {
			return 0
		}
		return a % b
	case "==":
		return b2i(a == b)
	case "!=":
		return b2i(a != b)
	case "<":
		return b2i(a < b)
	case "<=":
		return b2i(a <= b)
	case ">":
		return b2i(a > b)
	case ">=":
		return b2i(a >= b)
	}
	panic("mc: unreachable operator " + n.op)
}

// --- parser: a Go expression, narrowed to the language ---

// parseExpr parses src with Go's expression grammar, so precedence and
// literals are Go's, and lowers the tree to a node. allowRegs admits pe
// and r<N> (assert expressions).
func parseExpr(src string, allowRegs bool) (*node, error) {
	// Go reads these as a comment or a line break; the language has neither.
	if strings.Contains(src, "//") || strings.Contains(src, "/*") || strings.ContainsAny(src, "\r\n") {
		return nil, fmt.Errorf("bad expression %q", src)
	}
	fset := token.NewFileSet()
	e, err := parser.ParseExprFrom(fset, "", src, 0)
	if err != nil {
		return nil, err
	}
	text := func(n ast.Node) string {
		return src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset]
	}
	// fail keeps the first error; lowering goes on with a nil node.
	fail := func(format string, args ...any) *node {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
		return nil
	}
	var lower func(e ast.Expr) *node
	lower = func(e ast.Expr) *node {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return lower(e.X)
		case *ast.BasicLit:
			v, perr := strconv.ParseInt(e.Value, 0, 64)
			if e.Kind != token.INT || perr != nil {
				return fail("bad literal %s", e.Value)
			}
			return &node{kind: nLit, val: v}
		case *ast.Ident:
			name := e.Name
			isReg := len(name) > 1 && name[0] == 'r' && '0' <= name[1] && name[1] <= '9'
			switch {
			case name == "npes":
				return &node{kind: nNPEs}
			case (name == "pe" || isReg) && !allowRegs:
				return fail("%s is only available in assert expressions", name)
			case name == "pe":
				return &node{kind: nPE}
			case isReg:
				r, perr := strconv.Atoi(name[1:])
				if perr != nil || r >= isa.NumRegs {
					return fail("bad register %q", name)
				}
				return &node{kind: nReg, val: int64(r)}
			}
		case *ast.IndexExpr:
			if m, ok := e.X.(*ast.Ident); ok && m.Name == "M" {
				return &node{kind: nMem, a: lower(e.Index)}
			}
		case *ast.UnaryExpr:
			if e.Op == token.SUB {
				return &node{kind: nNeg, a: lower(e.X)}
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				if isComparison(e.X) || isComparison(e.Y) {
					return fail("chained comparison %s: parenthesize one side", text(e))
				}
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM, token.LAND, token.LOR:
			default:
				return fail("operator %s is not in the language", e.Op)
			}
			return &node{kind: nBin, op: e.Op.String(), a: lower(e.X), b: lower(e.Y)}
		}
		return fail("%s is not in the language", text(e))
	}
	n := lower(e)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// isComparison reports whether e is an unparenthesized comparison.
func isComparison(e ast.Expr) bool {
	b, ok := e.(*ast.BinaryExpr)
	return ok && b.Op.Precedence() == token.EQL.Precedence()
}
