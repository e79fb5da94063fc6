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
// Expressions are integer-valued over + - * / % (division by zero is 0,
// like the ISA), comparisons == != < <= > >=, && || and unary minus, with
// the atoms: integer literals, npes (the PE count under check), pe (the
// evaluating PE, asserts only), r<N> (that PE's integer register, asserts
// only) and M[<expr>] (a shared-memory word). Booleans are 0/1, so
// invariants are written as expressions that must stay nonzero.
//
// A line `;ultravet:ok guestmc <reason>` anywhere in the file suppresses
// the checker's findings for that file (the guest-side analogue of the
// Go-source //ultravet:ok marker).
package mc

import (
	"fmt"
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
		text := strings.TrimSpace(raw[j+len(";mc:"):])
		dir, rest, _ := strings.Cut(text, " ")
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

// --- recursive-descent parser ---

type parser struct {
	toks      []string
	pos       int
	allowRegs bool
}

func parseExpr(src string, allowRegs bool) (*node, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty expression")
	}
	p := &parser{toks: toks, allowRegs: allowRegs}
	n, err := p.or()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("trailing %q", p.toks[p.pos])
	}
	return n, nil
}

func tokenize(s string) ([]string, error) {
	var toks []string
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && (isAlnum(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case isAlpha(c):
			j := i
			for j < len(s) && isAlnum(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case strings.ContainsRune("[]()+-*/%", rune(c)):
			toks = append(toks, string(c))
			i++
		case c == '=' || c == '!' || c == '<' || c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, s[i:i+2])
				i += 2
			} else if c == '<' || c == '>' {
				toks = append(toks, string(c))
				i++
			} else {
				return nil, fmt.Errorf("bad operator %q", string(c))
			}
		case c == '&' || c == '|':
			if i+1 < len(s) && s[i+1] == c {
				toks = append(toks, s[i:i+2])
				i += 2
			} else {
				return nil, fmt.Errorf("bad operator %q", string(c))
			}
		default:
			return nil, fmt.Errorf("bad character %q", string(c))
		}
	}
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isAlnum(c byte) bool { return isAlpha(c) || (c >= '0' && c <= '9') }

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(t string) error {
	if p.peek() != t {
		return fmt.Errorf("expected %q, got %q", t, p.peek())
	}
	p.pos++
	return nil
}

func (p *parser) or() (*node, error) {
	n, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.peek() == "||" {
		p.next()
		b, err := p.and()
		if err != nil {
			return nil, err
		}
		n = &node{kind: nBin, op: "||", a: n, b: b}
	}
	return n, nil
}

func (p *parser) and() (*node, error) {
	n, err := p.cmp()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&&" {
		p.next()
		b, err := p.cmp()
		if err != nil {
			return nil, err
		}
		n = &node{kind: nBin, op: "&&", a: n, b: b}
	}
	return n, nil
}

func (p *parser) cmp() (*node, error) {
	n, err := p.sum()
	if err != nil {
		return nil, err
	}
	switch op := p.peek(); op {
	case "==", "!=", "<", "<=", ">", ">=":
		p.next()
		b, err := p.sum()
		if err != nil {
			return nil, err
		}
		n = &node{kind: nBin, op: op, a: n, b: b}
	}
	return n, nil
}

func (p *parser) sum() (*node, error) {
	n, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		switch op := p.peek(); op {
		case "+", "-":
			p.next()
			b, err := p.term()
			if err != nil {
				return nil, err
			}
			n = &node{kind: nBin, op: op, a: n, b: b}
		default:
			return n, nil
		}
	}
}

func (p *parser) term() (*node, error) {
	n, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch op := p.peek(); op {
		case "*", "/", "%":
			p.next()
			b, err := p.unary()
			if err != nil {
				return nil, err
			}
			n = &node{kind: nBin, op: op, a: n, b: b}
		default:
			return n, nil
		}
	}
}

func (p *parser) unary() (*node, error) {
	if p.peek() == "-" {
		p.next()
		a, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &node{kind: nNeg, a: a}, nil
	}
	return p.atom()
}

func (p *parser) atom() (*node, error) {
	t := p.next()
	switch {
	case t == "":
		return nil, fmt.Errorf("unexpected end of expression")
	case t == "(":
		n, err := p.or()
		if err != nil {
			return nil, err
		}
		return n, p.expect(")")
	case t == "npes":
		return &node{kind: nNPEs}, nil
	case t == "pe":
		if !p.allowRegs {
			return nil, fmt.Errorf("pe is only available in assert expressions")
		}
		return &node{kind: nPE}, nil
	case t == "M":
		if err := p.expect("["); err != nil {
			return nil, err
		}
		a, err := p.or()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return &node{kind: nMem, a: a}, nil
	case t[0] == 'r' && len(t) > 1 && t[1] >= '0' && t[1] <= '9':
		if !p.allowRegs {
			return nil, fmt.Errorf("register %s is only available in assert expressions", t)
		}
		r, err := strconv.Atoi(t[1:])
		if err != nil || r < 0 || r >= isa.NumRegs {
			return nil, fmt.Errorf("bad register %q", t)
		}
		return &node{kind: nReg, val: int64(r)}, nil
	case t[0] >= '0' && t[0] <= '9':
		v, err := strconv.ParseInt(t, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad literal %q", t)
		}
		return &node{kind: nLit, val: v}, nil
	default:
		return nil, fmt.Errorf("unknown atom %q", t)
	}
}
