package isa

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Disassemble renders the program as re-assemblable text: branch targets
// become generated labels (or the program's own label names when it has
// them), one instruction per line.
func (p *Program) Disassemble() string {
	// Name branch targets: prefer original labels, invent L<pc> others.
	names := map[int]string{}
	for name, pc := range p.Labels {
		if _, taken := names[pc]; !taken || name < names[pc] {
			names[pc] = name
		}
	}
	for _, in := range p.Instrs {
		if in.Op.hasTarget() {
			pc := int(in.Imm)
			if _, ok := names[pc]; !ok {
				names[pc] = "L" + strconv.Itoa(pc)
			}
		}
	}

	var b strings.Builder
	for pc, in := range p.Instrs {
		if lbl, ok := names[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		fmt.Fprintf(&b, "\t%s\n", disasmInstr(in, names))
	}
	// Labels at the end of the program (targets one past the last
	// instruction).
	var tail []int
	for pc := range names {
		if pc >= len(p.Instrs) {
			tail = append(tail, pc)
		}
	}
	sort.Ints(tail)
	for _, pc := range tail {
		fmt.Fprintf(&b, "%s:\n", names[pc])
	}
	return b.String()
}

// InstrString renders the instruction at pc in the assembler's input
// syntax, naming branch targets with the program's own labels when it
// has them (diagnostic use: lint findings, trace annotations).
func (p *Program) InstrString(pc int) string {
	if pc < 0 || pc >= len(p.Instrs) {
		return fmt.Sprintf("; pc %d out of range", pc)
	}
	names := map[int]string{}
	for name, at := range p.Labels {
		if _, taken := names[at]; !taken || name < names[at] {
			names[at] = name
		}
	}
	if in := p.Instrs[pc]; in.Op.hasTarget() {
		if _, ok := names[int(in.Imm)]; !ok {
			names[int(in.Imm)] = "L" + strconv.Itoa(int(in.Imm))
		}
	}
	return disasmInstr(p.Instrs[pc], names)
}

// hasTarget reports whether Imm holds a pc the assembler resolved from a
// label.
func (o Op) hasTarget() bool {
	return o < numOps && (rows[o].flow == flowBranch || rows[o].flow == flowJump)
}

// disasmInstr renders one instruction in the assembler's input syntax,
// operand by operand as the opcode's row lists them.
func disasmInstr(in Instr, names map[int]string) string {
	if in.Op >= numOps {
		return "; unknown " + in.Op.String()
	}
	var b strings.Builder
	b.WriteString(in.Op.String())
	sep := " "
	for _, o := range rows[in.Op].args {
		b.WriteString(sep)
		sep = ", "
		switch o {
		case oRd, oRs, oRt:
			fmt.Fprintf(&b, "r%d", *in.reg(o - oRd))
		case oFd, oFs, oFt:
			fmt.Fprintf(&b, "f%d", *in.reg(o - oFd))
		case oImm:
			fmt.Fprintf(&b, "%d", in.Imm)
		case oFImm:
			b.WriteString(formatFloat(in.FImm))
		case oMem:
			fmt.Fprintf(&b, "%d(r%d)", in.Imm, in.Rs)
		case oLabel:
			b.WriteString(names[int(in.Imm)])
		}
	}
	return b.String()
}

// formatFloat renders a float immediate so the assembler reparses it as
// the same float: finite values always with a decimal point or exponent,
// NaN and the infinities as strconv writes (and reads) them.
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") && !math.IsNaN(v) && !math.IsInf(v, 0) {
		s += ".0"
	}
	return s
}
