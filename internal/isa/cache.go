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

	// Block fill in progress. words is a BlockWords window of a slab
	// carved at construction and reused by every fill.
	filling  bool
	block    int64
	words    []int64
	issued   int
	received int

	// Write-backs (from evictions and flushes) awaiting issue:
	// wb[wbNext:]. It is the core's one write-back buffer: a fill that
	// completes and a flush that starts find it drained (tickCache issues
	// every queued store first), and the cache appends their write-backs
	// to it from its head. It starts as a window of wbRoom entries or
	// fewer carved from a slab; a larger batch appends past the window
	// into an array of the core's own.
	wb     []cache.WriteBack
	wbNext int
	// flushing: after the write-back queue drains, wait for all
	// acknowledgements before the CFLU instruction completes (§3.4's
	// flush must guarantee central memory is updated).
	flushing bool
}

// wbRoom caps a core's carved write-back room: min(cache capacity, wbRoom)
// entries, 1 KiB a core at most, enough for a flush of sixteen 4-word
// blocks without leaving the slab. A larger cache does not buy a larger
// window, so a 1024×8×16 cache costs no 2 MiB buffer a PE.
const wbRoom = 64

// NewCoreWithCache builds an interpreter whose CLDS/CSTS/CFLU/CREL
// instructions run against a private write-back cache of the given
// shape. Cores built with NewCore treat those instructions as illegal.
// It is NewCores for one core.
func NewCoreWithCache(prog *Program, localWords int, cfg cache.Config) *Core {
	return &NewCores([]*Program{prog}, localWords, &cfg)[0]
}

// carveCaches gives every core a cache of shape cfg, its fill words and
// its write-back room, each a window of one slab.
func carveCaches(cores []Core, cfg cache.Config) {
	caches := cache.NewCaches(len(cores), cfg)
	ccs := make([]coreCache, len(cores))
	bw := cfg.BlockWords
	room := min(cfg.Sets*cfg.Ways*bw, wbRoom)
	words := make([]int64, len(cores)*bw)
	wbs := make([]cache.WriteBack, len(cores)*room)
	for i := range cores {
		ccs[i] = coreCache{
			c:     &caches[i],
			words: words[i*bw : (i+1)*bw : (i+1)*bw],
			wb:    wbs[i*room : i*room : (i+1)*room],
		}
		cores[i].cc = &ccs[i]
	}
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
	if cc.wbNext < len(cc.wb) {
		w := cc.wb[cc.wbNext]
		if env.Issue(msg.Store, w.Addr, w.Value, -1) {
			cc.wbNext++
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
		cc.wb, cc.wbNext = cc.c.Fill(cc.block, cc.words, cc.wb[:0]), 0
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
// carved window needs no clearing.
func (cc *coreCache) startFill(addr int64) {
	cc.filling = true
	cc.block = cc.c.Block(addr)
	cc.issued = 0
	cc.received = 0
}

// flush starts a CFLU of [lo, hi): the cache appends the range's dirty
// words to the drained write-back queue, and the instruction completes
// once they are issued and acknowledged (tickCache).
func (cc *coreCache) flush(lo, hi int64) {
	cc.wb, cc.wbNext = cc.c.Flush(lo, hi, cc.wb[:0]), 0
	cc.flushing = true
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

// busy reports whether cache microcode is in progress (false without a
// cache).
func (cc *coreCache) busy() bool {
	return cc != nil && (cc.wbNext < len(cc.wb) || cc.flushing || cc.filling)
}

// observeCache points the cache at the PE's sink before its first access.
func (c *Core) observeCache(env *pe.Env) {
	if !c.cc.observed {
		env.ObserveCache(c.cc.c)
		c.cc.observed = true
	}
}

// execCached runs what private leaves of a cached-memory instruction: a
// load or store that misses counts its miss and starts the block's fill
// (the pc stays, so the instruction re-runs as a hit after it), and a
// flush queues its write-backs (the pc advances when they drain,
// tickCache).
func (c *Core) execCached(env *pe.Env, in *Instr) pe.TickResult {
	cc := c.cc
	if cc == nil {
		panic(fmt.Sprintf("isa: %v requires a core built with NewCoreWithCache", in.Op))
	}
	c.observeCache(env)
	switch addr := c.regs.I[in.Rs] + in.Imm; in.Op {
	case CLDS:
		cc.c.Read(addr)
		cc.startFill(addr)
	case CSTS:
		cc.c.Write(addr, c.regs.I[in.Rt])
		cc.startFill(addr)
	case CFLU:
		cc.flush(c.regs.I[in.Rs], c.regs.I[in.Rt])
	default:
		panic(fmt.Sprintf("isa: execCached on %v", in.Op))
	}
	return pe.TickResult{}
}
