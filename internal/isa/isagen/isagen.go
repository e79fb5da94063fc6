// Package isagen draws halting SPMD guest programs for tests and shrinks
// a program that fails a test to a smaller one that still fails it.
package isagen

import (
	"strings"

	"ultracomputer/internal/isa"
)

// Spec is what a generated program may touch.
type Spec struct {
	PEs     int      // the program is drawn for 1..PEs PEs
	Private int      // lw/sw reach private words [0, Private)
	Shared  [2]int64 // lds, sts and fetch-and-φ reach these shared words
	Cached  [2]int64 // clds/csts reach these; cflu/crel name ranges in them
	Body    int      // instructions between the prologue and the final halt
}

// win is the first window register. The prologue loads r26..r31 with
// Private/2, Shared[0], Shared's middle, Cached[0], Cached's middle and
// Cached[1], and nothing else writes them.
const win = 26

// Source is where a program's choices come from: a *rand.Rand, or Bytes.
type Source interface{ Intn(n int) int }

// Bytes is fuzz bytes as a Source: a byte a draw, zeros once spent.
type Bytes []byte

// Intn is the next byte modulo n.
func (b *Bytes) Intn(n int) (v int) {
	if len(*b) > 0 {
		v, *b = int((*b)[0]), (*b)[1:]
	}
	return v % n
}

// Ops is every opcode of the instruction table: isa keeps its size to
// itself, but an Op outside the table prints as "op(N)".
func Ops() (ops []isa.Op) {
	for op := isa.Op(0); !strings.HasPrefix(op.String(), "op("); op++ {
		ops = append(ops, op)
	}
	return ops
}

// Generate draws a PE count from [1, spec.PEs] and an SPMD program that
// halts on any PE count: the window registers' prologue, a value in every
// other register below them in each file, spec.Body instructions and a
// halt. Half the body is register-only or PE-identity instructions, the
// other half draws one of the four memory classes, then an opcode in it;
// every opcode but halt and jr is drawn. Operands are random, except that
// only r0..r25 are written, branches and jumps hop forward, memory
// operands stay inside their windows and cflu/crel ranges start at
// Cached[0] or its middle and end at its middle or Cached[1].
func Generate(spec Spec, src Source) (*isa.Program, int) {
	pes, sh, c := 1+src.Intn(spec.PEs), spec.Shared, spec.Cached
	val := [isa.NumRegs]int64{win: int64(spec.Private / 2), win + 1: sh[0], win + 2: (sh[0] + sh[1]) / 2,
		win + 3: c[0], win + 4: (c[0] + c[1]) / 2, win + 5: c[1]}
	p := &isa.Program{}
	for r := win; r < isa.NumRegs; r++ {
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.LI, Rd: r, Imm: val[r]})
	}
	for r := 1; r < win; r += 2 {
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.LI, Rd: r, Imm: int64(r*r*4099 - 1<<19)},
			isa.Instr{Op: isa.FLI, Rd: r, FImm: float64(r)*2.75 - 30})
	}
	pools := map[isa.Class][]isa.Op{} // ClassPE's opcodes are filed under ClassReg
	for _, op := range Ops() {
		switch c := op.Class(); {
		case c == isa.ClassHalt || op == isa.JR: // one halt ends the program; jr's target is data
		case c == isa.ClassPE:
			pools[isa.ClassReg] = append(pools[isa.ClassReg], op)
		default:
			pools[c] = append(pools[c], op)
		}
	}
	memory := []isa.Class{isa.ClassPrivate, isa.ClassShared, isa.ClassCached, isa.ClassCacheRange}
	at := func(in *isa.Instr, w [2]int64, bases ...int) {
		in.Rs = bases[src.Intn(len(bases))]
		in.Imm = w[0] + int64(src.Intn(int(w[1]-w[0]))) - val[in.Rs]
	}
	for end := len(p.Instrs) + spec.Body; len(p.Instrs) < end; {
		pool := pools[isa.ClassReg]
		if src.Intn(2) == 1 {
			pool = pools[memory[src.Intn(len(memory))]]
		}
		in := isa.Instr{Op: pool[src.Intn(len(pool))], Rd: src.Intn(win), Rs: src.Intn(isa.NumRegs),
			Rt: src.Intn(isa.NumRegs), Imm: int64(src.Intn(64) - 16), FImm: float64(src.Intn(64)-16) / 4}
		switch in.Op.Class() {
		case isa.ClassPrivate:
			at(&in, [2]int64{0, int64(spec.Private)}, 0, win)
		case isa.ClassShared:
			at(&in, sh, 0, win+1, win+2)
		case isa.ClassCached:
			at(&in, c, 0, win+3, win+4)
		case isa.ClassCacheRange:
			in.Rs, in.Rt = win+3+src.Intn(2), win+4+src.Intn(2)
		}
		if jumps(in.Op) {
			in.Imm = int64(min(len(p.Instrs)+1+src.Intn(4), end)) // a short hop: most of the body runs
		}
		p.Instrs = append(p.Instrs, in)
	}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.HALT})
	// Through the assembler, a field the opcode's text does not show
	// becomes zero, so the program survives Disassemble -> Assemble.
	return &isa.Program{Instrs: isa.MustAssemble(p.Disassemble()).Instrs}, pes
}

// jumps reports whether op's Imm is a pc, its branch or jump target.
func jumps(op isa.Op) bool {
	succs, _ := (&isa.Program{Instrs: []isa.Instr{{Op: op, Imm: -1}}}).Succs(0)
	return len(succs) > 0 && succs[len(succs)-1] == -1
}

// Shrink returns the smallest program and PE count it finds on which
// stillFails holds, from a failing prog on pes PEs: it drops one
// instruction at a time, then lowers the PE count, until neither helps.
// The window registers' prologue and the final halt stay, and a branch to
// a dropped instruction lands on the one after it, so every branch still
// hops forward and every program halts.
func Shrink(prog *isa.Program, pes int, stillFails func(prog *isa.Program, pes int) bool) (*isa.Program, int) {
	for progress := true; progress; {
		progress = false
		for at := isa.NumRegs - win; at < len(prog.Instrs)-1; at++ {
			q := &isa.Program{Instrs: append(prog.Instrs[:at:at], prog.Instrs[at+1:]...)}
			for i := range q.Instrs {
				if in := &q.Instrs[i]; jumps(in.Op) && int(in.Imm) > at {
					in.Imm--
				}
			}
			if stillFails(q, pes) {
				prog, progress, at = q, true, at-1
			}
		}
		for fewer := 1; fewer < pes && !progress; fewer++ {
			if stillFails(prog, fewer) {
				pes, progress = fewer, true
			}
		}
	}
	return prog, pes
}
