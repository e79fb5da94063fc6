// Package isa defines a small load/store instruction set, an assembler,
// and an interpreter that plugs into internal/pe as a Core. It plays the
// role of the paper's instruction-level simulation (§5.0): PEs are
// register machines in the CDC 6600 mold with the Ultracomputer's two
// extensions — fetch-and-add instructions on shared memory (§3.5) and
// register locking, so a PE keeps executing past an outstanding shared
// load and stalls only when a locked register is consumed.
//
// Registers: 32 integer registers r0..r31 (r0 is hardwired zero) and 32
// float registers f0..f31 (IEEE float64). Local (private) memory is
// word-addressed and always one cycle — the cache-resident assumption of
// §4.2. Shared memory is reached through the network with LDS/STS, the
// fetch-and-phi family (FAA, FAO, FAN, FAX, FAI, SWP) and float
// LDS/STS variants.
package isa

import (
	"fmt"

	"ultracomputer/internal/msg"
)

// Op is an opcode.
type Op uint8

// Opcode space. The comment gives the assembly syntax.
const (
	NOP  Op = iota // nop
	HALT           // halt

	LI   // li rd, imm
	MOV  // mov rd, rs
	ADD  // add rd, rs, rt
	SUB  // sub rd, rs, rt
	MUL  // mul rd, rs, rt
	DIV  // div rd, rs, rt   (x/0 = 0)
	MOD  // mod rd, rs, rt   (x%0 = 0)
	AND  // and rd, rs, rt
	OR   // or rd, rs, rt
	XOR  // xor rd, rs, rt
	SHL  // shl rd, rs, rt
	SHR  // shr rd, rs, rt   (arithmetic)
	ADDI // addi rd, rs, imm
	SLT  // slt rd, rs, rt   rd = rs < rt
	SLE  // sle rd, rs, rt
	SEQ  // seq rd, rs, rt
	SNE  // sne rd, rs, rt

	FLI   // fli fd, fimm
	FMOV  // fmov fd, fs
	FADD  // fadd fd, fs, ft
	FSUB  // fsub fd, fs, ft
	FMUL  // fmul fd, fs, ft
	FDIV  // fdiv fd, fs, ft
	FSQRT // fsqrt fd, fs
	FNEG  // fneg fd, fs
	FABS  // fabs fd, fs
	FSLT  // fslt rd, fs, ft
	FSLE  // fsle rd, fs, ft
	FSEQ  // fseq rd, fs, ft
	CVTIF // cvtif fd, rs
	CVTFI // cvtfi rd, fs    (truncates)

	BEQ // beq rs, rt, label
	BNE // bne rs, rt, label
	BLT // blt rs, rt, label
	BGE // bge rs, rt, label
	JMP // jmp label
	JAL // jal rd, label     rd = return pc
	JR  // jr rs

	LW // lw rd, imm(rs)     local memory load
	SW // sw rt, imm(rs)     local memory store

	LDS  // lds rd, imm(rs)      shared load
	STS  // sts rt, imm(rs)      shared store
	FAA  // faa rd, imm(rs), rt  rd = FetchAdd(M[rs+imm], rt)
	FAO  // fao rd, imm(rs), rt  fetch-and-or
	FAN  // fan rd, imm(rs), rt  fetch-and-and
	FAX  // fax rd, imm(rs), rt  fetch-and-max
	FAI  // fai rd, imm(rs), rt  fetch-and-min
	SWP  // swp rd, imm(rs), rt  swap
	FLDS // flds fd, imm(rs)     shared float load
	FSTS // fsts ft, imm(rs)     shared float store

	RDPE // rdpe rd    rd = this PE's number
	RDNP // rdnp rd    rd = number of PEs

	// Cached shared-memory access (§3.2/§3.4): the core's write-back
	// cache satisfies hits locally; misses fetch the block through the
	// network. CFLU/CREL are the paper's explicit flush and release.
	CLDS // clds rd, imm(rs)   cached shared load
	CSTS // csts rt, imm(rs)   cached shared store (write-back)
	CFLU // cflu rs, rt        flush cached range [rs, rt)
	CREL // crel rs, rt        release cached range [rs, rt)

	numOps
)

// Class says which part of the machine executes an opcode.
type Class uint8

// The execution classes.
const (
	ClassReg        Class = iota // registers and pc only: Regs.Exec is the whole instruction
	ClassHalt                    // stops the PE
	ClassPE                      // reads the PE's identity from its environment
	ClassPrivate                 // private memory, one cycle
	ClassShared                  // one request through the network: Op.Mem names it
	ClassCached                  // one word through the write-back cache
	ClassCacheRange              // flush or release of a cached address range
)

// operand is one assembly operand: where it sits in the source text is
// its position in the row, where it sits in the Instr is its kind.
type operand uint8

const (
	oRd    operand = iota // integer register in Instr.Rd
	oRs                   // integer register in Instr.Rs
	oRt                   // integer register in Instr.Rt
	oFd                   // float register in Instr.Rd
	oFs                   // float register in Instr.Rs
	oFt                   // float register in Instr.Rt
	oImm                  // integer immediate in Instr.Imm
	oFImm                 // float immediate in Instr.FImm
	oMem                  // imm(rs): Instr.Imm and the integer register in Instr.Rs
	oLabel                // label, resolved to a pc in Instr.Imm
)

// flow says how control leaves an instruction.
type flow uint8

const (
	flowNext     flow = iota // to pc+1 (a ClassHalt instruction: nowhere)
	flowBranch               // to pc+1 or to Imm
	flowJump                 // to Imm
	flowIndirect             // to a pc held in a register
)

type ops = []operand

// row describes one opcode. Everything else that depends on the opcode
// but not on register values — assembling and disassembling it, the
// registers it reads and writes, its control-flow successors, who
// executes it — is derived from its row (DESIGN.md §5).
type row struct {
	name  string
	args  ops    // assembly operands in source order
	class Class  // zero: register-only
	mem   msg.Op // the request a ClassShared opcode issues
	flow  flow   // zero: falls through

	// Derived by init from args: for each of Rd, Rs, Rt, all ones when
	// the row names that field as a register of the file, else zero.
	intSel, floatSel [3]uint32
}

var rows = [numOps]row{
	NOP:   {name: "nop"},
	HALT:  {name: "halt", class: ClassHalt},
	LI:    {name: "li", args: ops{oRd, oImm}},
	MOV:   {name: "mov", args: ops{oRd, oRs}},
	ADD:   {name: "add", args: ops{oRd, oRs, oRt}},
	SUB:   {name: "sub", args: ops{oRd, oRs, oRt}},
	MUL:   {name: "mul", args: ops{oRd, oRs, oRt}},
	DIV:   {name: "div", args: ops{oRd, oRs, oRt}},
	MOD:   {name: "mod", args: ops{oRd, oRs, oRt}},
	AND:   {name: "and", args: ops{oRd, oRs, oRt}},
	OR:    {name: "or", args: ops{oRd, oRs, oRt}},
	XOR:   {name: "xor", args: ops{oRd, oRs, oRt}},
	SHL:   {name: "shl", args: ops{oRd, oRs, oRt}},
	SHR:   {name: "shr", args: ops{oRd, oRs, oRt}},
	ADDI:  {name: "addi", args: ops{oRd, oRs, oImm}},
	SLT:   {name: "slt", args: ops{oRd, oRs, oRt}},
	SLE:   {name: "sle", args: ops{oRd, oRs, oRt}},
	SEQ:   {name: "seq", args: ops{oRd, oRs, oRt}},
	SNE:   {name: "sne", args: ops{oRd, oRs, oRt}},
	FLI:   {name: "fli", args: ops{oFd, oFImm}},
	FMOV:  {name: "fmov", args: ops{oFd, oFs}},
	FADD:  {name: "fadd", args: ops{oFd, oFs, oFt}},
	FSUB:  {name: "fsub", args: ops{oFd, oFs, oFt}},
	FMUL:  {name: "fmul", args: ops{oFd, oFs, oFt}},
	FDIV:  {name: "fdiv", args: ops{oFd, oFs, oFt}},
	FSQRT: {name: "fsqrt", args: ops{oFd, oFs}},
	FNEG:  {name: "fneg", args: ops{oFd, oFs}},
	FABS:  {name: "fabs", args: ops{oFd, oFs}},
	FSLT:  {name: "fslt", args: ops{oRd, oFs, oFt}},
	FSLE:  {name: "fsle", args: ops{oRd, oFs, oFt}},
	FSEQ:  {name: "fseq", args: ops{oRd, oFs, oFt}},
	CVTIF: {name: "cvtif", args: ops{oFd, oRs}},
	CVTFI: {name: "cvtfi", args: ops{oRd, oFs}},
	BEQ:   {name: "beq", args: ops{oRs, oRt, oLabel}, flow: flowBranch},
	BNE:   {name: "bne", args: ops{oRs, oRt, oLabel}, flow: flowBranch},
	BLT:   {name: "blt", args: ops{oRs, oRt, oLabel}, flow: flowBranch},
	BGE:   {name: "bge", args: ops{oRs, oRt, oLabel}, flow: flowBranch},
	JMP:   {name: "jmp", args: ops{oLabel}, flow: flowJump},
	JAL:   {name: "jal", args: ops{oRd, oLabel}, flow: flowJump},
	JR:    {name: "jr", args: ops{oRs}, flow: flowIndirect},
	LW:    {name: "lw", args: ops{oRd, oMem}, class: ClassPrivate},
	SW:    {name: "sw", args: ops{oRt, oMem}, class: ClassPrivate},
	LDS:   {name: "lds", args: ops{oRd, oMem}, class: ClassShared, mem: msg.Load},
	STS:   {name: "sts", args: ops{oRt, oMem}, class: ClassShared, mem: msg.Store},
	FAA:   {name: "faa", args: ops{oRd, oMem, oRt}, class: ClassShared, mem: msg.FetchAdd},
	FAO:   {name: "fao", args: ops{oRd, oMem, oRt}, class: ClassShared, mem: msg.FetchOr},
	FAN:   {name: "fan", args: ops{oRd, oMem, oRt}, class: ClassShared, mem: msg.FetchAnd},
	FAX:   {name: "fax", args: ops{oRd, oMem, oRt}, class: ClassShared, mem: msg.FetchMax},
	FAI:   {name: "fai", args: ops{oRd, oMem, oRt}, class: ClassShared, mem: msg.FetchMin},
	SWP:   {name: "swp", args: ops{oRd, oMem, oRt}, class: ClassShared, mem: msg.Swap},
	FLDS:  {name: "flds", args: ops{oFd, oMem}, class: ClassShared, mem: msg.Load},
	FSTS:  {name: "fsts", args: ops{oFt, oMem}, class: ClassShared, mem: msg.Store},
	RDPE:  {name: "rdpe", args: ops{oRd}, class: ClassPE},
	RDNP:  {name: "rdnp", args: ops{oRd}, class: ClassPE},
	CLDS:  {name: "clds", args: ops{oRd, oMem}, class: ClassCached},
	CSTS:  {name: "csts", args: ops{oRt, oMem}, class: ClassCached},
	CFLU:  {name: "cflu", args: ops{oRs, oRt}, class: ClassCacheRange},
	CREL:  {name: "crel", args: ops{oRs, oRt}, class: ClassCacheRange},
}

func init() {
	for op := range rows {
		r := &rows[op]
		for _, o := range r.args {
			switch {
			case o <= oRt:
				r.intSel[o-oRd] = ^uint32(0)
			case o <= oFt:
				r.floatSel[o-oFd] = ^uint32(0)
			case o == oMem:
				r.intSel[oRs] = ^uint32(0)
			}
		}
	}
}

// String names the opcode.
func (o Op) String() string {
	if o < numOps {
		return rows[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func opByName(name string) (Op, bool) {
	for op := range rows {
		if rows[op].name == name {
			return Op(op), true
		}
	}
	return 0, false
}

// Class reports which part of the machine executes the opcode.
func (o Op) Class() Class { return rows[o].class }

// Mem reports the request a ClassShared opcode sends to memory.
func (o Op) Mem() msg.Op { return rows[o].mem }

// NumRegs is the size of each register file.
const NumRegs = 32

// Instr is one decoded instruction.
type Instr struct {
	Op   Op
	Rd   int     // destination register (int or float file per Op)
	Rs   int     // first source
	Rt   int     // second source
	Imm  int64   // integer immediate / local or shared offset / branch target
	FImm float64 // float immediate
}

// Regs reports the registers the instruction reads (Rs, Rt where its row
// names them) and writes (Rd), one bit mask per register file. Bit 0 of
// the integer masks is r0: the core's interlock locks it like any
// register, liveness must never count it — each consumer masks.
func (i *Instr) Regs() (useI, useF, defI, defF uint32) {
	r := &rows[i.Op]
	d, s, t := uint32(1)<<uint(i.Rd), uint32(1)<<uint(i.Rs), uint32(1)<<uint(i.Rt)
	return s&r.intSel[oRs] | t&r.intSel[oRt], s&r.floatSel[oRs] | t&r.floatSel[oRt],
		d & r.intSel[oRd], d & r.floatSel[oRd]
}

// String renders the instruction in assembly-like form.
func (i Instr) String() string {
	return fmt.Sprintf("%s rd=%d rs=%d rt=%d imm=%d", i.Op, i.Rd, i.Rs, i.Rt, i.Imm)
}

// Program is an assembled program.
type Program struct {
	Instrs []Instr
	Labels map[string]int
	// Lines maps each instruction to its 1-based source line, when the
	// program came through Assemble (nil for hand-built programs). The
	// guest lint and model checker use it to report positions, and the
	// `;mc:` annotation parser uses it to attach per-line assertions.
	Lines []int
}

// Line reports the 1-based source line of the instruction at pc, or 0
// when the program carries no line table.
func (p *Program) Line(pc int) int {
	if pc < 0 || pc >= len(p.Lines) {
		return 0
	}
	return p.Lines[pc]
}

// Succs lists the static control-flow successors of the instruction at
// pc. A successor may be len(Instrs), one past the end, where execution
// halts; a conditional branch lists pc+1, then its target. The list is
// exact unless the instruction jumps through a register: then it is the
// conservative one, every pc that follows a jump which left a return
// address in a register.
func (p *Program) Succs(pc int) (succs []int, exact bool) {
	in := &p.Instrs[pc]
	switch r := &rows[in.Op]; {
	case r.class == ClassHalt:
		return nil, true
	case r.flow == flowBranch:
		return []int{pc + 1, int(in.Imm)}, true
	case r.flow == flowJump:
		return []int{int(in.Imm)}, true
	case r.flow == flowIndirect:
		for at := range p.Instrs {
			call := &rows[p.Instrs[at].Op]
			if call.flow == flowJump && call.intSel[oRd] != 0 && at+1 < len(p.Instrs) {
				succs = append(succs, at+1)
			}
		}
		return succs, false
	}
	return []int{pc + 1}, true
}
