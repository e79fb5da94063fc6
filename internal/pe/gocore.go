package pe

import (
	"iter"
	"math"
	"slices"

	"ultracomputer/internal/msg"
)

// GoCore runs a PE program written as an ordinary Go function against the
// simulated machine. The program is a coroutine of its PE's Tick: Tick
// resumes it, and it runs until its next Ctx call hands the core an
// action. So guest code runs only inside Tick, a guest panic unwinds
// through Tick to whoever steps the machine, and every Ctx call costs
// simulated processor cycles and shared-memory traffic: timing results
// are deterministic.
//
// This mirrors the paper's methodology: WASHCLOTH simulated parallel
// scientific programs at the instruction level; here the arithmetic runs
// natively in Go while every memory reference and compute burst is
// charged to the simulated PE.
type GoCore struct {
	next  func() (*action, bool) // resumes the program until its next action
	yield func(*action) bool     // hands the program's action to Tick
	ctx   Ctx
	act   action  // the one action the program has outstanding
	cur   *action // &act while Tick serves it, nil once it is done
	own   Handle  // what a blocking FetchOp waits on
	// handles maps a tag to the handle awaiting its reply; nil marks a
	// free tag, so tags stay below the outstanding-request limit
	// (required by MultiCore's tag partitioning).
	handles []*Handle
	halted  bool

	owner *PE // set on the first tick; caches the program attaches emit through it
}

// Program is the body of a PE: it runs once and its return halts the PE.
type Program func(ctx *Ctx)

// NewGoCore wraps prog.
func NewGoCore(prog Program) *GoCore {
	g := &GoCore{}
	g.ctx.core = g
	g.own.core = g
	g.next, _ = iter.Pull(func(yield func(*action) bool) {
		g.yield = yield
		prog(&g.ctx)
	})
	return g
}

type actionKind uint8

const (
	aCompute actionKind = iota
	aIssue              // shared request: a store, or a value op answered into h
	aWait               // consume a Handle's value
	aFence              // wait until no requests are outstanding
)

type action struct {
	kind     actionKind
	localRef bool
	n        int
	op       msg.Op
	addr     int64
	operand  int64
	h        *Handle
	value    int64
}

// do hands a to Tick and returns its value once Tick has served it.
func (g *GoCore) do(a action) int64 {
	g.act = a
	g.yield(&g.act)
	return g.act.value
}

// Handle names an asynchronous shared-memory request (the paper's locked
// register): the PE keeps executing and stalls only when Wait consumes a
// value that has not yet returned.
type Handle struct {
	core  *GoCore
	ready bool
	value int64
}

// Wait blocks the simulated PE until the value arrives, then returns it.
// If the value already arrived, Wait is free.
func (h *Handle) Wait() int64 { return h.core.do(action{kind: aWait, h: h}) }

// WaitF is Wait for a float64 stored as IEEE bits.
func (h *Handle) WaitF() float64 { return math.Float64frombits(uint64(h.Wait())) }

// Tick implements Core.
func (g *GoCore) Tick(env *Env) TickResult {
	if g.owner == nil {
		g.owner = env.pe
		g.ctx.pe, g.ctx.npe = env.PEID(), env.NumPE()
	}
	for !g.halted {
		if g.cur == nil {
			a, ok := g.next()
			if !ok {
				g.halted = true
				break
			}
			g.cur = a
		}
		a := g.cur
		switch a.kind {
		case aCompute:
			if a.n <= 0 {
				g.cur = nil
				continue
			}
			a.n--
			if a.n == 0 {
				g.cur = nil
			}
			return TickResult{Executed: true, LocalRef: a.localRef}

		case aIssue:
			tag := -1
			if a.h != nil {
				if tag = slices.Index(g.handles, nil); tag < 0 {
					tag = len(g.handles)
					g.handles = append(g.handles, nil)
				}
			}
			if !env.Issue(a.op, a.addr, a.operand, tag) {
				return TickResult{}
			}
			if a.h != nil {
				a.h.ready = false
				g.handles[tag] = a.h
			}
			g.cur = nil
			return TickResult{Executed: true}

		case aWait:
			if !a.h.ready {
				return TickResult{} // idle, register still locked
			}
			a.value = a.h.value
			g.cur = nil // the value is present: consuming it is free

		case aFence:
			if env.Pending() > 0 {
				return TickResult{} // idle, draining the store pipeline
			}
			g.cur = nil
		}
	}
	return TickResult{Halted: true}
}

// Complete implements Core: a shared-memory reply arrived.
func (g *GoCore) Complete(tag int, value int64) {
	if tag < 0 || tag >= len(g.handles) || g.handles[tag] == nil {
		panic("pe: completion for unknown tag")
	}
	h := g.handles[tag]
	g.handles[tag] = nil
	h.ready, h.value = true, value
}

// Ctx is the API a Program uses to act on the machine. Every method costs
// simulated time; programs must coordinate only through shared memory
// (fetch-and-add and friends), never through Go-level synchronization.
type Ctx struct {
	core *GoCore
	pe   int
	npe  int
}

// PE reports this processing element's number.
func (c *Ctx) PE() int { return c.pe }

// NumPE reports the machine's PE count.
func (c *Ctx) NumPE() int { return c.npe }

// Compute spends n processor cycles of pure register-to-register work.
func (c *Ctx) Compute(n int) { c.core.do(action{kind: aCompute, n: n}) }

// Private spends n processor cycles each making one private-memory
// reference (satisfied by the local cache, §3.2's 95%-hit assumption).
func (c *Ctx) Private(n int) { c.core.do(action{kind: aCompute, n: n, localRef: true}) }

// FetchOp performs a blocking fetch-and-phi on shared memory, returning
// the fetched (old) value. It costs what an issue and a Wait cost: one
// cycle to issue, idle until the reply, and nothing to consume it.
func (c *Ctx) FetchOp(op msg.Op, addr, operand int64) int64 {
	h := &c.core.own
	c.core.do(action{kind: aIssue, op: op, addr: addr, operand: operand, h: h})
	return h.Wait()
}

// Load reads shared memory, blocking until the value returns.
func (c *Ctx) Load(addr int64) int64 { return c.FetchOp(msg.Load, addr, 0) }

// FetchAdd atomically adds e to shared memory and returns the old value.
func (c *Ctx) FetchAdd(addr, e int64) int64 { return c.FetchOp(msg.FetchAdd, addr, e) }

// Swap atomically exchanges the operand with shared memory.
func (c *Ctx) Swap(addr, v int64) int64 { return c.FetchOp(msg.Swap, addr, v) }

// TestAndSet sets the low bit of the addressed word and reports whether
// it was already set (fetch-and-or, §2.4).
func (c *Ctx) TestAndSet(addr int64) bool { return c.FetchOp(msg.FetchOr, addr, 1)&1 != 0 }

// Store writes shared memory without waiting for the acknowledgement.
func (c *Ctx) Store(addr, v int64) {
	c.core.do(action{kind: aIssue, op: msg.Store, addr: addr, operand: v})
}

// FetchOpAsync issues a fetch-and-phi and returns immediately with a
// Handle (the locked register); the PE keeps executing.
func (c *Ctx) FetchOpAsync(op msg.Op, addr, operand int64) *Handle {
	h := &Handle{core: c.core}
	c.core.do(action{kind: aIssue, op: op, addr: addr, operand: operand, h: h})
	return h
}

// LoadAsync prefetches a shared word.
func (c *Ctx) LoadAsync(addr int64) *Handle { return c.FetchOpAsync(msg.Load, addr, 0) }

// FetchAddAsync issues a fetch-and-add without waiting.
func (c *Ctx) FetchAddAsync(addr, e int64) *Handle {
	return c.FetchOpAsync(msg.FetchAdd, addr, e)
}

// Pause burns one processor cycle inside a busy-wait loop. It satisfies
// coord.Mem alongside para.Memory: on the ideal paracomputer a pause is
// free, on the simulated machine it costs an instruction.
func (c *Ctx) Pause() { c.Compute(1) }

// Fence stalls the PE until every outstanding shared-memory request —
// in particular pipelined stores — has been acknowledged. Asynchronous
// stores to *different* locations may complete out of order (§3.1.4's
// pipelining caveat), so a store that publishes data must be fenced
// before the synchronization that announces it; coord.Barrier.Wait
// fences automatically.
func (c *Ctx) Fence() { c.core.do(action{kind: aFence}) }

// LoadF reads a shared word holding IEEE float64 bits.
func (c *Ctx) LoadF(addr int64) float64 { return math.Float64frombits(uint64(c.Load(addr))) }

// StoreF writes a float64 as IEEE bits.
func (c *Ctx) StoreF(addr int64, v float64) { c.Store(addr, int64(math.Float64bits(v))) }

// LoadAsyncF prefetches a shared float64.
func (c *Ctx) LoadAsyncF(addr int64) *Handle { return c.LoadAsync(addr) }
