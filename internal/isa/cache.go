package isa

import (
	"fmt"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/pe"
)

// The ISA core's optional write-back cache (§3.2/§3.4), driven by the
// CLDS/CSTS/CFLU/CREL instructions. Misses run a small microcode
// sequence: issue the block's loads one per cycle (the cycles count as
// memory waiting, like any other stall), install the block, push the
// evicted line's dirty words out as pipelined stores, then re-execute
// the faulting instruction, which now hits.

// Fill tags live above the register tag space.
const fillTagBase = 2 * NumRegs

// coreCache is the cache subsystem state of a Core.
type coreCache struct {
	c *cache.Cache
	// observed: c emits through the PE's sink (set on the first cached
	// instruction, the cache's first access).
	observed bool

	// Block fill in progress. words is preallocated at construction
	// (BlockWords long) and reused by every fill.
	filling  bool
	block    int64
	words    []int64
	issued   int
	received int

	// Write-backs (from evictions and flushes) awaiting issue.
	wb []cache.WriteBack
	// flushing: after the write-back queue drains, wait for all
	// acknowledgements before the CFLU instruction completes (§3.4's
	// flush must guarantee central memory is updated).
	flushing bool
}

// NewCoreWithCache builds an interpreter whose CLDS/CSTS/CFLU/CREL
// instructions run against a private write-back cache of the given
// shape. Cores built with NewCore treat those instructions as illegal.
func NewCoreWithCache(prog *Program, localWords int, cfg cache.Config) *Core {
	c := NewCore(prog, localWords)
	cc := &coreCache{c: cache.New(cfg)}
	cc.words = make([]int64, cc.c.BlockWords())
	c.cc = cc
	return c
}

// Cache exposes the cache for result checking; nil without one.
func (c *Core) Cache() *cache.Cache {
	if c.cc == nil {
		return nil
	}
	return c.cc.c
}

// tickCache advances cache microcode; it returns a TickResult and true
// when the cycle was consumed by cache work (the main interpreter must
// not run).
func (c *Core) tickCache(env *pe.Env) (pe.TickResult, bool) {
	cc := c.cc
	if cc == nil {
		return pe.TickResult{}, false
	}
	// Drain pending write-backs first: one pipelined store per cycle.
	if len(cc.wb) > 0 {
		w := cc.wb[0]
		if env.Issue(msg.Store, w.Addr, w.Value, -1) {
			cc.wb = cc.wb[1:]
		}
		return pe.TickResult{}, true
	}
	if cc.flushing {
		if env.Pending() == 0 {
			cc.flushing = false
			c.pc++ // the CFLU instruction completes
			return pe.TickResult{Executed: true}, true
		}
		return pe.TickResult{}, true
	}
	if cc.filling {
		n := cc.c.BlockWords()
		if cc.issued < n {
			tag := fillTagBase + cc.issued
			if env.Issue(msg.Load, cc.block+int64(cc.issued), 0, tag) {
				cc.issued++
			}
			return pe.TickResult{}, true
		}
		if cc.received < n {
			return pe.TickResult{}, true // waiting on the block
		}
		cc.wb = cc.c.Fill(cc.block, cc.words)
		cc.filling = false
		// Fall through to re-execute the faulting instruction this
		// cycle only if no write-backs queued; otherwise they drain
		// first on subsequent cycles.
		return pe.TickResult{}, true
	}
	return pe.TickResult{}, false
}

// startFill begins fetching the block containing addr. Every word of
// cc.words is overwritten by completeFill before Fill reads it, so the
// preallocated buffer needs no clearing.
func (cc *coreCache) startFill(addr int64) {
	cc.filling = true
	cc.block = cc.c.Block(addr)
	cc.issued = 0
	cc.received = 0
}

// completeFill consumes a fill reply.
func (c *Core) completeFill(tag int, value int64) {
	cc := c.cc
	slot := tag - fillTagBase
	if cc == nil || !cc.filling || slot < 0 || slot >= len(cc.words) {
		panic(fmt.Sprintf("isa: stray fill completion tag %d", tag))
	}
	cc.words[slot] = value
	cc.received++
}

// execCached executes one cached-memory instruction (the pc advances
// only on completion; a miss leaves the pc so the instruction re-runs
// after the fill).
func (c *Core) execCached(env *pe.Env, in *Instr) pe.TickResult {
	cc := c.cc
	if cc == nil {
		panic(fmt.Sprintf("isa: %v requires a core built with NewCoreWithCache", in.Op))
	}
	if !cc.observed {
		env.ObserveCache(cc.c)
		cc.observed = true
	}
	switch in.Op {
	case CLDS:
		addr := c.regs.I[in.Rs] + in.Imm
		if v, hit := cc.c.Read(addr); hit {
			c.regs.setI(in.Rd, v)
			c.pc++
			return pe.TickResult{Executed: true, LocalRef: true}
		}
		cc.startFill(addr)
		return pe.TickResult{}
	case CSTS:
		addr := c.regs.I[in.Rs] + in.Imm
		if cc.c.Write(addr, c.regs.I[in.Rt]) {
			c.pc++
			return pe.TickResult{Executed: true, LocalRef: true}
		}
		cc.startFill(addr)
		return pe.TickResult{}
	case CFLU:
		lo, hi := c.regs.I[in.Rs], c.regs.I[in.Rt]
		cc.wb = append(cc.wb, cc.c.Flush(lo, hi)...)
		cc.flushing = true
		// pc advances when the flush drains (tickCache).
		return pe.TickResult{}
	case CREL:
		lo, hi := c.regs.I[in.Rs], c.regs.I[in.Rt]
		cc.c.Release(lo, hi)
		c.pc++
		return pe.TickResult{Executed: true}
	default:
		panic(fmt.Sprintf("isa: execCached on %v", in.Op))
	}
}
