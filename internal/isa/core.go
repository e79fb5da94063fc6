package isa

import (
	"fmt"
	"math"

	"ultracomputer/internal/cache"
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
// It is NewCores for one core.
func NewCore(prog *Program, localWords int) *Core {
	return &NewCores([]*Program{prog}, localWords, nil)[0]
}

// NewCores builds one interpreter per program, core i running progs[i],
// each with localWords words of private memory (see NewCore) and, when
// cfg is not nil, a private write-back cache of that shape (see
// NewCoreWithCache). A machine's cores cost a constant number of
// allocations whatever their count: the cores, a page table slab when the
// tables do not fit inline, and for caches the caches' own slabs
// (cache.NewCaches), the cache states, and the slabs of fill words and
// write-back room the cores carve their windows from.
func NewCores(progs []*Program, localWords int, cfg *cache.Config) []Core {
	localWords = max(localWords, 1)
	n := (localWords + pageWords - 1) >> pageShift
	cores := make([]Core, len(progs))
	var tables []*[pageWords]int64
	if n > inlinePages {
		tables = make([]*[pageWords]int64, len(progs)*n)
	}
	for i := range cores {
		c := &cores[i]
		c.prog, c.localWords = progs[i], localWords
		if tables != nil {
			c.pages = tables[i*n : (i+1)*n : (i+1)*n]
		} else {
			c.pages = c.inline[:n]
		}
	}
	if cfg != nil {
		carveCaches(cores, *cfg)
	}
	return cores
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

	if ran, local := c.private(env, in); ran {
		return pe.TickResult{Executed: true, LocalRef: local}
	}
	// What private leaves: what other units see, and the private
	// instructions that miss or fault.
	switch in.Op.Class() {
	case ClassHalt:
		c.halted = true
		return pe.TickResult{Halted: true}
	case ClassShared:
		return c.issueShared(env, in)
	case ClassCached, ClassCacheRange:
		return c.execCached(env, in)
	case ClassPrivate:
		c.localAddr(in) // out of range: panics
	}
	panic(fmt.Sprintf("isa: unhandled opcode %v at pc %d", in.Op, c.pc))
}

// private executes the instruction at pc if no other unit can see it —
// registers, the PE's identity, private memory in range, a cache hit, a
// release — and reports whether it ran and whether it referenced private
// memory. Anything else it leaves as it found it: a shared, halt or
// flush instruction, a cache miss, an address out of range. Tick and
// Burst execute private instructions here and only here.
func (c *Core) private(env *pe.Env, in *Instr) (ran, local bool) {
	if next, ok := c.regs.Exec(in, c.pc); ok {
		c.pc = next
		return true, false
	}
	switch in.Op {
	case RDPE:
		c.regs.setI(in.Rd, int64(env.PEID()))
	case RDNP:
		c.regs.setI(in.Rd, int64(env.NumPE()))
	case LW, SW:
		a := c.regs.I[in.Rs] + in.Imm
		if a < 0 || a >= int64(c.localWords) {
			return false, false
		}
		if in.Op == LW {
			c.regs.setI(in.Rd, c.loadLocal(int(a)))
		} else {
			c.storeLocal(int(a), c.regs.I[in.Rt])
		}
		local = true
	case CLDS, CSTS, CREL:
		if c.cc == nil {
			return false, false // execCached panics
		}
		c.observeCache(env)
		k := c.cc.c
		switch in.Op {
		case CLDS:
			v, hit := k.ReadHit(c.regs.I[in.Rs] + in.Imm)
			if !hit {
				return false, false
			}
			c.regs.setI(in.Rd, v)
		case CSTS:
			if !k.WriteHit(c.regs.I[in.Rs]+in.Imm, c.regs.I[in.Rt]) {
				return false, false
			}
		case CREL:
			k.Release(c.regs.I[in.Rs], c.regs.I[in.Rt])
		}
		local = in.Op != CREL
	default:
		return false, false
	}
	c.pc++
	return true, local
}

// Burst implements pe.Burster: it retires up to limit of the private
// instructions that follow, exactly as that many Ticks would, and stops
// before anything else — a locked register, a shared, halt or flush
// instruction, a cache miss or fault, a pc off the program, cache
// microcode in progress — which then runs in a Tick at its own cycle.
// locals counts the retired instructions that referenced private memory.
func (c *Core) Burst(env *pe.Env, limit int) (n, locals int) {
	if c.halted || c.cc.busy() {
		return 0, 0
	}
	for ; n < limit && c.pc >= 0 && c.pc < len(c.prog.Instrs); n++ {
		in := &c.prog.Instrs[c.pc]
		if c.lockI|c.lockF != 0 && c.locked(in) {
			break
		}
		// The cache's index arithmetic may fault on a negative address,
		// and a fault must surface at its own cycle.
		if in.Op.Class() == ClassCached && c.regs.I[in.Rs]+in.Imm < 0 {
			break
		}
		ran, l := c.private(env, in)
		if !ran {
			break
		}
		if l {
			locals++
		}
	}
	return n, locals
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
