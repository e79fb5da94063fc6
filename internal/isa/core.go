package isa

import (
	"fmt"
	"math"

	"ultracomputer/internal/pe"
)

// Core interprets an assembled Program as a pe.Core, one instruction per
// processor cycle, with register locking: a shared-memory instruction
// issues its request and execution continues; consuming the destination
// register before the reply arrives costs idle cycles (§3.5).
type Core struct {
	prog   *Program
	pc     int
	regs   Regs
	lockI  uint32 // bit d: integer register d awaits a reply
	lockF  uint32 // the same for the float file
	halted bool
	cc     *coreCache // optional write-back cache (NewCoreWithCache)

	// Private memory is localWords words of address space whose pages
	// exist from their first store: word a lives in pages[a>>pageShift]
	// at offset a&(pageWords-1), and a nil page reads as zeros.
	localWords int
	pages      []*[pageWords]int64
	// inline backs pages when the table fits (the default LocalWords
	// does), so the table costs no allocation of its own.
	inline [inlinePages]*[pageWords]int64
}

const (
	pageShift   = 9
	pageWords   = 1 << pageShift
	inlinePages = 8
)

// NewCore builds an interpreter with localWords words of private memory.
// The words are address space: a 4 KiB page is allocated at the first
// store into it, so a core costs what its program stores, not localWords.
func NewCore(prog *Program, localWords int) *Core {
	if localWords < 1 {
		localWords = 1
	}
	c := &Core{prog: prog, localWords: localWords}
	if n := (localWords + pageWords - 1) >> pageShift; n <= inlinePages {
		c.pages = c.inline[:n]
	} else {
		c.pages = make([]*[pageWords]int64, n)
	}
	return c
}

// Reg reads integer register r (for result checking after a run).
func (c *Core) Reg(r int) int64 { return c.regs.I[r] }

// FReg reads float register r.
func (c *Core) FReg(r int) float64 { return c.regs.F[r] }

// Local reads private-memory word a.
func (c *Core) Local(a int) int64 { return c.loadLocal(c.checkLocal(int64(a))) }

// Halted reports whether the core has executed HALT.
func (c *Core) Halted() bool { return c.halted }

// PC reports the current program counter.
func (c *Core) PC() int { return c.pc }

// Program reports the program this core interprets (profiler use).
func (c *Core) Program() *Program { return c.prog }

// Tag space: integer register d locks as tag d, float register d as
// NumRegs+d.
const floatTagBase = NumRegs

// Complete implements pe.Core.
func (c *Core) Complete(tag int, value int64) {
	if tag >= fillTagBase {
		c.completeFill(tag, value)
		return
	}
	if tag < floatTagBase {
		c.regs.setI(tag, value)
		c.lockI &^= 1 << uint(tag)
		return
	}
	f := tag - floatTagBase
	c.regs.F[f] = math.Float64frombits(uint64(value))
	c.lockF &^= 1 << uint(f)
}

// Tick implements pe.Core.
func (c *Core) Tick(env *pe.Env) pe.TickResult {
	if c.halted {
		return pe.TickResult{Halted: true}
	}
	// Cache microcode (fills, write-backs, flush drains) preempts
	// instruction execution.
	if r, busy := c.tickCache(env); busy {
		return r
	}
	if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
		// Falling off the program is a halt.
		c.halted = true
		return pe.TickResult{Halted: true}
	}
	in := &c.prog.Instrs[c.pc]

	// Register-lock interlock: every register the instruction reads or
	// overwrites must be unlocked; otherwise the cycle is lost. Most
	// ticks find no lock set at all.
	if c.lockI|c.lockF != 0 && c.locked(in) {
		return pe.TickResult{}
	}

	if next, ok := c.regs.Exec(in, c.pc); ok {
		c.pc = next
		return pe.TickResult{Executed: true}
	}
	switch in.Op {
	case HALT:
		c.halted = true
		return pe.TickResult{Halted: true}

	case RDPE:
		c.regs.setI(in.Rd, int64(env.PEID()))
	case RDNP:
		c.regs.setI(in.Rd, int64(env.NumPE()))

	case LW:
		c.regs.setI(in.Rd, c.loadLocal(c.localAddr(in)))
		c.pc++
		return pe.TickResult{Executed: true, LocalRef: true}
	case SW:
		c.storeLocal(c.localAddr(in), c.regs.I[in.Rt])
		c.pc++
		return pe.TickResult{Executed: true, LocalRef: true}

	case CLDS, CSTS, CFLU, CREL:
		return c.execCached(env, in)

	default:
		if in.Op.Class() == ClassShared {
			return c.issueShared(env, in)
		}
		panic(fmt.Sprintf("isa: unhandled opcode %v at pc %d", in.Op, c.pc))
	}
	c.pc++
	return pe.TickResult{Executed: true}
}

// issueShared issues the request of a ClassShared instruction as its row
// describes it: the address is imm(rs), the operand the register named
// as Rt (of either file), and the reply lands in — and until then locks —
// the register named as Rd; a row without one (the stores) awaits no
// value. On refusal the cycle is lost and the instruction retries.
func (c *Core) issueShared(env *pe.Env, in *Instr) pe.TickResult {
	r := &rows[in.Op]
	var operand int64
	switch {
	case r.intSel[oRt] != 0:
		operand = c.regs.I[in.Rt]
	case r.floatSel[oRt] != 0:
		operand = int64(math.Float64bits(c.regs.F[in.Rt]))
	}
	tag := -1
	switch {
	case r.intSel[oRd] != 0:
		tag = in.Rd
	case r.floatSel[oRd] != 0:
		tag = floatTagBase + in.Rd
	}
	if !env.Issue(r.mem, c.regs.I[in.Rs]+in.Imm, operand, tag) {
		return pe.TickResult{}
	}
	d := uint32(1) << uint(in.Rd)
	c.lockI |= d & r.intSel[oRd]
	c.lockF |= d & r.floatSel[oRd]
	c.pc++
	return pe.TickResult{Executed: true}
}

// locked reports whether any register the instruction names is locked.
func (c *Core) locked(in *Instr) bool {
	useI, useF, defI, defF := in.Regs()
	return c.lockI&(useI|defI)|c.lockF&(useF|defF) != 0
}

// localAddr computes and bounds-checks a private-memory address.
func (c *Core) localAddr(in *Instr) int {
	return c.checkLocal(c.regs.I[in.Rs] + in.Imm)
}

// checkLocal panics unless a is a private-memory address.
func (c *Core) checkLocal(a int64) int {
	if a < 0 || a >= int64(c.localWords) {
		panic(fmt.Sprintf("isa: local address %d out of [0,%d) at pc %d", a, c.localWords, c.pc))
	}
	return int(a)
}

// loadLocal reads checked address a; a page never stored to reads 0.
func (c *Core) loadLocal(a int) int64 {
	if p := c.pages[a>>pageShift]; p != nil {
		return p[a&(pageWords-1)]
	}
	return 0
}

// storeLocal writes checked address a, allocating its page on first touch.
func (c *Core) storeLocal(a int, v int64) {
	i := a >> pageShift
	if c.pages[i] == nil {
		//ultravet:ok hotalloc first store into a page: at most ceil(localWords/512) per core for the life of the machine
		c.pages[i] = new([pageWords]int64)
	}
	c.pages[i][a&(pageWords-1)] = v
}
