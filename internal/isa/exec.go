package isa

import "math"

// Regs is a PE's two register files. I[0] is r0, hardwired zero: Exec
// never writes it, and nothing else should.
type Regs struct {
	I [NumRegs]int64
	F [NumRegs]float64
}

// setI writes integer register d, discarding writes to r0.
func (r *Regs) setI(d int, v int64) {
	if d != 0 {
		r.I[d] = v
	}
}

// Exec executes the instruction at pc if it is register-only (ClassReg:
// it touches nothing but the register files and the pc) and returns the
// pc that follows. For any other instruction it does nothing and reports
// !ok. This is the one definition of the ALU, float, compare, convert,
// branch and jump opcodes: the core, the model checker and the guest
// lint's constant propagation all run it.
func (r *Regs) Exec(in *Instr, pc int) (next int, ok bool) {
	switch in.Op {
	case NOP:

	case LI:
		r.setI(in.Rd, in.Imm)
	case MOV:
		r.setI(in.Rd, r.I[in.Rs])
	case ADD:
		r.setI(in.Rd, r.I[in.Rs]+r.I[in.Rt])
	case SUB:
		r.setI(in.Rd, r.I[in.Rs]-r.I[in.Rt])
	case MUL:
		r.setI(in.Rd, r.I[in.Rs]*r.I[in.Rt])
	case DIV:
		if r.I[in.Rt] == 0 {
			r.setI(in.Rd, 0)
		} else {
			r.setI(in.Rd, r.I[in.Rs]/r.I[in.Rt])
		}
	case MOD:
		if r.I[in.Rt] == 0 {
			r.setI(in.Rd, 0)
		} else {
			r.setI(in.Rd, r.I[in.Rs]%r.I[in.Rt])
		}
	case AND:
		r.setI(in.Rd, r.I[in.Rs]&r.I[in.Rt])
	case OR:
		r.setI(in.Rd, r.I[in.Rs]|r.I[in.Rt])
	case XOR:
		r.setI(in.Rd, r.I[in.Rs]^r.I[in.Rt])
	case SHL:
		r.setI(in.Rd, r.I[in.Rs]<<uint(r.I[in.Rt]&63))
	case SHR:
		r.setI(in.Rd, r.I[in.Rs]>>uint(r.I[in.Rt]&63))
	case ADDI:
		r.setI(in.Rd, r.I[in.Rs]+in.Imm)
	case SLT:
		r.setI(in.Rd, b2i(r.I[in.Rs] < r.I[in.Rt]))
	case SLE:
		r.setI(in.Rd, b2i(r.I[in.Rs] <= r.I[in.Rt]))
	case SEQ:
		r.setI(in.Rd, b2i(r.I[in.Rs] == r.I[in.Rt]))
	case SNE:
		r.setI(in.Rd, b2i(r.I[in.Rs] != r.I[in.Rt]))

	case FLI:
		r.F[in.Rd] = in.FImm
	case FMOV:
		r.F[in.Rd] = r.F[in.Rs]
	case FADD:
		r.F[in.Rd] = r.F[in.Rs] + r.F[in.Rt]
	case FSUB:
		r.F[in.Rd] = r.F[in.Rs] - r.F[in.Rt]
	case FMUL:
		r.F[in.Rd] = r.F[in.Rs] * r.F[in.Rt]
	case FDIV:
		r.F[in.Rd] = r.F[in.Rs] / r.F[in.Rt]
	case FSQRT:
		r.F[in.Rd] = math.Sqrt(r.F[in.Rs])
	case FNEG:
		r.F[in.Rd] = -r.F[in.Rs]
	case FABS:
		r.F[in.Rd] = math.Abs(r.F[in.Rs])
	case FSLT:
		r.setI(in.Rd, b2i(r.F[in.Rs] < r.F[in.Rt]))
	case FSLE:
		r.setI(in.Rd, b2i(r.F[in.Rs] <= r.F[in.Rt]))
	case FSEQ:
		r.setI(in.Rd, b2i(r.F[in.Rs] == r.F[in.Rt]))
	case CVTIF:
		r.F[in.Rd] = float64(r.I[in.Rs])
	case CVTFI:
		r.setI(in.Rd, int64(r.F[in.Rs]))

	case BEQ:
		if r.I[in.Rs] == r.I[in.Rt] {
			return int(in.Imm), true
		}
	case BNE:
		if r.I[in.Rs] != r.I[in.Rt] {
			return int(in.Imm), true
		}
	case BLT:
		if r.I[in.Rs] < r.I[in.Rt] {
			return int(in.Imm), true
		}
	case BGE:
		if r.I[in.Rs] >= r.I[in.Rt] {
			return int(in.Imm), true
		}
	case JMP:
		return int(in.Imm), true
	case JAL:
		r.setI(in.Rd, int64(pc+1))
		return int(in.Imm), true
	case JR:
		return int(r.I[in.Rs]), true

	default:
		return pc, false
	}
	return pc + 1, true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
