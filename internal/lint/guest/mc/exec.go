package mc

import (
	"fmt"
	"math"
	"slices"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/msg"
)

// One model-checker step executes one whole instruction atomically. This
// matches the machine at the granularity the replay harness can control
// (Machine.StepPE runs one instruction to completion, traffic drained),
// and it is faithful for single-word shared operations because the MMs
// serialize them. The one deliberate coarsening: a CFLU writes back all
// of its dirty words in one step, where the real cache pipelines one
// store per cycle — flush-internal interleavings are not explored, which
// is exactly the granularity instruction-level schedules can express.
//
// Lost-update tracking rides along with execution: each PE remembers the
// address of its most recent shared read and whether the cell has since
// been written by someone else (or was already stale when read from the
// cache). A plain store back to such a cell silently discards the
// concurrent update — the bug class §2.3's fetch-and-add algorithms
// exist to avoid — and is reported as a violation.

// stepEffect reports what the executed instruction did beyond mutating
// the state.
type stepEffect struct {
	lostUpdate bool  // plain store clobbered a concurrently-written cell
	addr       int64 // the cell, when lostUpdate
	wroteMem   bool  // the instruction wrote shared memory (progress, for
	// the livelock detector; fetch-and-phi counts even when the value is
	// unchanged, so write-churn spins are conservatively "progress")
}

func (c *checker) readMem(s *state, addr int64) int64 { return s.mem.value(addr) }

// writeMem stores to shared memory and invalidates other PEs'
// read-tracking of the cell.
func (c *checker) writeMem(s *state, p int, addr, v int64) {
	s.mem.put(addr, v)
	for q := range s.pes {
		if q != p && s.pes[q].lastRead == addr {
			s.pes[q].lastDirty = true
		}
	}
}

// noteRead records PE p's most recent shared read.
func noteRead(p *peState, addr int64, stale bool) {
	p.lastRead = addr
	p.lastDirty = stale
}

// checkPlainStore flags the store if the target cell went stale under a
// pending read-modify-write; the store always clears the read window.
func checkPlainStore(p *peState, addr int64) bool {
	lost := p.lastRead == addr && p.lastDirty
	p.lastRead = -1
	p.lastDirty = false
	return lost
}

// step executes PE p's next instruction on s. p must not be halted.
func (c *checker) step(s *state, p int) stepEffect {
	pe := &s.pes[p]
	if pe.pc < 0 || pe.pc >= len(c.prog.Instrs) {
		c.haltPE(pe)
		return stepEffect{}
	}
	in := &c.prog.Instrs[pe.pc]

	// Register-only instructions are the ISA's one definition
	// (isa.Regs.Exec, shared with the core); what follows — memory, the
	// cache, interleaving, lost updates — is the checker's own.
	if next, ok := pe.Exec(in, pe.pc); ok {
		pe.pc = next
		return stepEffect{}
	}
	switch in.Op {
	case isa.HALT:
		c.haltPE(pe)
		return stepEffect{}

	case isa.RDPE:
		pe.set(in.Rd, int64(p))
	case isa.RDNP:
		pe.set(in.Rd, int64(len(s.pes)))

	case isa.LW:
		pe.set(in.Rd, pe.local.value(pe.reg(in.Rs)+in.Imm))
	case isa.SW:
		pe.local.put(pe.reg(in.Rs)+in.Imm, pe.reg(in.Rt))

	case isa.LDS:
		addr := pe.reg(in.Rs) + in.Imm
		pe.set(in.Rd, c.readMem(s, addr))
		noteRead(pe, addr, false)
	case isa.STS:
		addr := pe.reg(in.Rs) + in.Imm
		lost := checkPlainStore(pe, addr)
		c.writeMem(s, p, addr, pe.reg(in.Rt))
		pe.pc++
		return stepEffect{lostUpdate: lost, addr: addr, wroteMem: true}
	case isa.FAA, isa.FAO, isa.FAN, isa.FAX, isa.FAI, isa.SWP:
		addr := pe.reg(in.Rs) + in.Imm
		old := c.readMem(s, addr)
		newVal, ret := msg.Apply(in.Op.Mem(), old, pe.reg(in.Rt))
		c.writeMem(s, p, addr, newVal)
		pe.set(in.Rd, ret)
		noteRead(pe, addr, false)
		pe.pc++
		return stepEffect{wroteMem: true}
	case isa.FLDS:
		addr := pe.reg(in.Rs) + in.Imm
		pe.F[in.Rd] = math.Float64frombits(uint64(c.readMem(s, addr)))
		noteRead(pe, addr, false)
	case isa.FSTS:
		addr := pe.reg(in.Rs) + in.Imm
		lost := checkPlainStore(pe, addr)
		c.writeMem(s, p, addr, int64(math.Float64bits(pe.F[in.Rt])))
		pe.pc++
		return stepEffect{lostUpdate: lost, addr: addr, wroteMem: true}

	case isa.CLDS:
		addr := pe.reg(in.Rs) + in.Imm
		i, hit := pe.cache.find(addr)
		if !hit {
			pe.cache.put(addr, cline{val: c.readMem(s, addr)}) // at index i
		}
		l := pe.cache[i].val
		pe.set(in.Rd, l.val)
		// A clean cached copy that no longer matches memory is an
		// observably stale read.
		noteRead(pe, addr, !l.dirty && l.val != c.readMem(s, addr))
	case isa.CSTS:
		addr := pe.reg(in.Rs) + in.Imm
		lost := checkPlainStore(pe, addr)
		pe.cache.put(addr, cline{val: pe.reg(in.Rt), dirty: true})
		pe.pc++
		return stepEffect{lostUpdate: lost, addr: addr}
	case isa.CFLU:
		lo, hi := pe.reg(in.Rs), pe.reg(in.Rt)
		flushed := false
		for i := range pe.cache {
			if w := &pe.cache[i]; w.addr >= lo && w.addr < hi && w.val.dirty {
				c.writeMem(s, p, w.addr, w.val.val)
				w.val.dirty = false
				flushed = true
			}
		}
		pe.pc++
		return stepEffect{wroteMem: flushed}
	case isa.CREL:
		lo, hi := pe.reg(in.Rs), pe.reg(in.Rt)
		i, _ := pe.cache.find(lo)
		j, _ := pe.cache.find(hi)
		pe.cache = slices.Delete(pe.cache, i, max(i, j)) // the words in [lo, hi)

	default:
		panic(fmt.Sprintf("mc: unhandled opcode %v at pc %d", in.Op, pe.pc))
	}
	pe.pc++
	return stepEffect{}
}

// haltPE retires the PE: its registers, cache and private memory become
// unobservable (dirty cached words are dropped, exactly as an exited PE
// on the machine never writes them back), so halted PEs all collapse to
// one canonical encoding.
func (c *checker) haltPE(pe *peState) {
	*pe = peState{pc: -1, halted: true, lastRead: -1}
}
