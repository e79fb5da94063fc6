// Package pe models the Ultracomputer's processing elements and their
// processor-network interfaces (PNIs, §3.4/§3.5).
//
// A PE couples a Core — the instruction-executing part, either the mini
// ISA interpreter in internal/isa or a Go program run as a coroutine of
// the PE's Tick (GoCore) — to a PNI that translates linear shared addresses to (module, word)
// pairs via hashing, assigns network-unique request IDs, enforces the
// pipelining restrictions (at most one outstanding reference per memory
// location, bounded outstanding requests), and matches replies back to
// the core.
//
// The paper's PEs continue executing past an outstanding load, marking
// the target register locked (§3.5); cores express that by issuing
// requests with tags and stalling only when a locked value is consumed.
package pe

import (
	"fmt"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/sim"
)

// TickResult reports what a core did with one processor cycle.
type TickResult struct {
	// Executed is true when an instruction completed this cycle; false
	// means the cycle was lost waiting (a locked register was consumed,
	// or the PNI refused an issue).
	Executed bool
	// LocalRef marks an executed instruction that referenced local
	// (private, cache-resident) memory.
	LocalRef bool
	// Halted means the core has finished; it will not execute again.
	Halted bool
}

// Core is the instruction-executing part of a PE.
type Core interface {
	// Tick gives the core one processor cycle. The core may call
	// env.Issue at most a few times (retrying is allowed) and reports
	// what happened.
	Tick(env *Env) TickResult
	// Complete delivers the result of a shared-memory request
	// previously issued with the given tag.
	Complete(tag int, value int64)
}

// Stats aggregates one PE's activity, feeding Table 1's columns.
type Stats struct {
	Instructions sim.Counter // instructions executed
	IdleCycles   sim.Counter // cycles lost waiting
	LocalRefs    sim.Counter // private-memory references (cache-satisfied)
	SharedRefs   sim.Counter // shared-memory requests issued
	SharedLoads  sim.Counter // value-returning shared requests (CM loads)
	CMWait       sim.Mean    // per-request issue-to-complete time (PE cycles)

	// Stall attribution: every IdleCycles tick lands in exactly one of
	// these three buckets (see obs.StallCause).
	IdleMemory   sim.Counter // waiting on a locked register or fence
	IdleNetFull  sim.Counter // network refused the injection (backpressure)
	IdlePipeline sim.Counter // PNI pipelining rules refused the issue
}

// PE is one processing element.
type PE struct {
	id     int
	core   Core
	pni    PNI
	stats  Stats
	halted bool

	// cmWait is the access-time distribution Deliver records each round
	// trip in: one histogram shared by every PE of a machine, which
	// Machine.Report reads. A PE built alone by New has none and keeps
	// only the CMWait mean.
	cmWait *sim.Histogram

	// subs is the set of consumers attached to the machine and out where
	// this PE's events go (Observe): the network's fan-out. scale converts
	// the PE cycles Tick runs on to the network cycles events are stamped
	// with.
	subs  *obs.Subs
	out   obs.Probe
	scale int64
	stall obs.StallCause // current stall run's cause, CauseNone when running

	// pcer is the core's PC capability, profPC the pc captured at the top
	// of the current tick so the profiler's issue and deliver events name
	// the issuing instruction rather than wherever the core moved to.
	pcer   PCer
	profPC int

	// burster is the core's Burster capability. ahead counts the PE
	// cycles whose instructions a burst has already retired; the PE pays
	// them back one per tick, so Instructions is exact at every cycle
	// boundary.
	burster Burster
	ahead   int

	// env is the Env handed to the core each tick, a field rather than a
	// stack value because passing &env through the Core interface would
	// force a heap allocation every cycle.
	env Env
}

// noSubs is the empty, never written audience of a PE outside a machine.
var noSubs obs.Subs

// PCer is the optional Core capability the profiler needs to attribute
// cycles to guest pcs (isa.Core has it; GoCore does not — its cycles
// land on pc 0).
type PCer interface {
	PC() int
}

// Observe hands the PE its event sink — the audience subs and the
// destination out, from network.Stepper.PESink — with scale, the number
// of network cycles per PE cycle (events are stamped in network cycles),
// and the request tracer whose sampling decision the PNI stamps on each
// request at issue (nil: no tracing). A cache the core owns joins the
// same sink on its first use (Env.ObserveCache).
func (p *PE) Observe(subs *obs.Subs, out obs.Probe, scale int64, tracer *reqtrace.Tracer) {
	p.subs, p.out, p.scale = subs, out, max(scale, 1)
	p.pni.tracer = tracer
}

// New builds PE id around core with a PNI that hashes addresses with h and
// injects into the network via inject. maxOutstanding bounds concurrent
// shared requests (the paper's register-locking design allows several).
// It is carve for one PE.
func New(id int, core Core, h memory.Hasher, inject func(pe int, r msg.Request) bool, maxOutstanding int) *PE {
	return &carve(id, []Core{core}, h, inject, maxOutstanding, nil)[0]
}

// NewPEs builds a machine's PEs, PE i around cores[i], sharing the hasher,
// the injector and the access-time histogram cmWait; see New. It costs
// two allocations whatever the PE count: the PEs and the slab their
// outstanding-request lists start in.
func NewPEs(cores []Core, h memory.Hasher, inject func(pe int, r msg.Request) bool, maxOutstanding int, cmWait *sim.Histogram) []PE {
	return carve(0, cores, h, inject, maxOutstanding, cmWait)
}

// carve builds PEs first, first+1, … around cores. Each PNI's list of
// outstanding requests is the three-index window
// slab[i*room : i*room : (i+1)*room], room = min(maxOutstanding,
// pendingRoom), so a PNI allowed more than its window appends into an
// array of its own and never into a neighbour's slots.
func carve(first int, cores []Core, h memory.Hasher, inject func(pe int, r msg.Request) bool, maxOutstanding int, cmWait *sim.Histogram) []PE {
	maxOutstanding = max(maxOutstanding, 1)
	room := min(maxOutstanding, pendingRoom)
	pes := make([]PE, len(cores))
	slab := make([]pendingReq, len(cores)*room)
	for i, core := range cores {
		p := &pes[i]
		p.id, p.core, p.cmWait = first+i, core, cmWait
		p.pni = PNI{
			pe: p.id, hash: h, inject: inject, maxOutstanding: maxOutstanding,
			pending: slab[i*room : i*room : (i+1)*room],
		}
		p.subs, p.scale = &noSubs, 1
		p.pcer, _ = core.(PCer)
		p.burster, _ = core.(Burster)
	}
	return pes
}

// ID reports the PE number.
func (p *PE) ID() int { return p.id }

// Stats exposes the PE's counters.
func (p *PE) Stats() *Stats { return &p.stats }

// PNI exposes the network interface (for tests and the machine).
func (p *PE) PNI() *PNI { return &p.pni }

// Halted reports whether the core has finished.
func (p *PE) Halted() bool { return p.halted }

// Drained reports whether the PE has no outstanding shared requests.
func (p *PE) Drained() bool { return p.pni.Outstanding() == 0 }

// Burster is the optional Core capability of retiring, in one call, the
// instructions that follow an executed one and that no other unit can
// see (isa.Core has it). Burst retires at most limit of them, leaving the
// core where that many Ticks would, and reports how many it retired and
// how many of those referenced private memory. It stops before anything
// that could stall or that another unit could see.
type Burster interface {
	Burst(env *Env, limit int) (n, locals int)
}

// maxBurst caps a burst, so one PE's call stays near its peers' cost
// within a tick phase while a burst ended by the cap still pays only one
// ordinary tick per 64 instructions.
const maxBurst = 64

// Tick runs one processor cycle. After an executed instruction, with no
// consumer subscribed and horizon beyond cycle, a Burster core retires
// the private instructions that follow in the same call, none past PE
// cycle horizon; the ticks of their cycles then only count them.
// Instructions stays exact at every cycle boundary, but LocalRefs,
// registers, pc, private memory and cache run ahead up to horizon, so
// only a caller that reads none of them before then (Machine.Run) passes
// a horizon beyond cycle; every other caller passes 0.
func (p *PE) Tick(cycle int64, npe int, horizon int64) {
	if p.ahead > 0 {
		// An instruction a burst retired, counted on its own cycle.
		p.ahead--
		p.stats.Instructions.Inc()
		return
	}
	p.tick(cycle, npe, horizon)
}

func (p *PE) tick(cycle int64, npe int, horizon int64) {
	// Post-halt cycles are attributed too, so profiles sum to exactly
	// PEs x measured cycles.
	state := obs.ProfHalted
	if !p.halted {
		if p.pcer != nil && *p.subs&obs.SubProf != 0 {
			p.profPC = p.pcer.PC()
		}
		p.env = Env{pe: p, cycle: cycle, npe: npe}
		r := p.core.Tick(&p.env)
		state = obs.ProfExecute
		switch {
		case r.Halted:
			p.halted = true
			p.endStall(cycle)
		case r.Executed:
			p.stats.Instructions.Inc()
			if r.LocalRef {
				p.stats.LocalRefs.Inc()
			}
			p.endStall(cycle)
			if p.burster != nil && cycle < horizon && *p.subs == 0 {
				n, locals := p.burster.Burst(&p.env, int(min(horizon-cycle, maxBurst)))
				p.ahead = n
				p.stats.LocalRefs.Add(int64(locals))
			}
		default:
			state = p.idle(cycle)
		}
	}
	if to := p.subs.For(obs.KindProfCycle, false); to != 0 {
		p.out.Emit(obs.Event{
			To: to, Cycle: cycle * p.scale, Kind: obs.KindProfCycle,
			PE: int32(p.id), Stage: -1, MM: -1, Copy: -1,
			Aux: int32(p.profPC), Value: int64(state),
		})
	}
}

// idle accounts one lost cycle to its cause, opening a new stall run
// when the cause changed, and reports the profiler's name for it.
func (p *PE) idle(cycle int64) obs.ProfState {
	p.stats.IdleCycles.Inc()
	cause, state := obs.CauseMemory, obs.ProfMemWait
	switch {
	case p.env.refusedNet:
		cause, state = obs.CauseNetFull, obs.ProfNetStall
		p.stats.IdleNetFull.Inc()
	case p.env.refusedPipe:
		cause = obs.CausePipeline
		p.stats.IdlePipeline.Inc()
	default:
		p.stats.IdleMemory.Inc()
	}
	if p.stall != cause {
		p.endStall(cycle)
		p.stall = cause
		if to := p.subs.For(obs.KindStallBegin, false); to != 0 {
			p.out.Emit(obs.Event{
				To: to, Cycle: cycle * p.scale, Kind: obs.KindStallBegin,
				PE: int32(p.id), Stage: -1, MM: -1, Copy: -1, Cause: cause,
			})
		}
	}
	return state
}

// endStall closes the current stall run, if any. It is small enough to
// inline, so a PE that is not stalled — the common tick — pays one
// compare and no call.
func (p *PE) endStall(cycle int64) {
	if p.stall != obs.CauseNone {
		p.closeStall(cycle)
	}
}

// closeStall reports the end of the current stall run.
func (p *PE) closeStall(cycle int64) {
	if to := p.subs.For(obs.KindStallEnd, false); to != 0 {
		p.out.Emit(obs.Event{
			To: to, Cycle: cycle * p.scale, Kind: obs.KindStallEnd,
			PE: int32(p.id), Stage: -1, MM: -1, Copy: -1, Cause: p.stall,
		})
	}
	p.stall = obs.CauseNone
}

// Deliver routes a network reply to the core, recording the round trip in
// PE cycles.
func (p *PE) Deliver(rep msg.Reply, cycle int64) {
	pr, ok := p.pni.complete(rep)
	if !ok {
		panic(fmt.Sprintf("pe %d: reply %v matches no outstanding request", p.id, rep))
	}
	p.stats.CMWait.Observe(float64(cycle - pr.issuedAt))
	if p.cmWait != nil {
		p.cmWait.Observe(cycle - pr.issuedAt)
	}
	if to := p.subs.For(obs.KindProfDeliver, false); to != 0 {
		p.out.Emit(obs.Event{
			To: to, Cycle: cycle * p.scale, Kind: obs.KindProfDeliver,
			PE: int32(p.id), Stage: -1, MM: -1, Copy: -1, Op: rep.Op,
			Aux: int32(pr.pc), Value: pr.addr, Addr: rep.Addr,
			ID: uint64(rep.Value), ID2: uint64(cycle - pr.issuedAt),
		})
	}
	if pr.tag >= 0 {
		p.core.Complete(pr.tag, rep.Value)
	}
}

// Env is the per-tick view a core has of its PE.
type Env struct {
	pe    *PE
	cycle int64
	npe   int
	// tagShift offsets completion tags; MultiCore uses it to give each
	// hardware-multiprogrammed stream a disjoint tag range.
	tagShift int
	// refusedNet/refusedPipe record why an Issue failed this tick, for
	// stall attribution: the network had no space vs. the PNI's
	// pipelining rules said no.
	refusedNet  bool
	refusedPipe bool
}

// PEID reports the PE number.
func (e *Env) PEID() int { return e.pe.id }

// NumPE reports the machine's PE count.
func (e *Env) NumPE() int { return e.npe }

// Cycle reports the current processor cycle.
func (e *Env) Cycle() int64 { return e.cycle }

// Issue offers a shared-memory request to the PNI. tag identifies the
// destination for the returned value (tag < 0: no completion callback is
// wanted, e.g. for stores). It reports false when the PNI cannot accept
// the request this cycle — the pipelining restrictions forbid it or the
// network is full — and the core must retry.
func (e *Env) Issue(op msg.Op, addr int64, operand int64, tag int) bool {
	if tag >= 0 {
		tag += e.tagShift
	}
	if !e.pe.pni.canIssue(addr) {
		e.refusedPipe = true
		return false
	}
	ok := e.pe.pni.issue(op, addr, operand, tag, e.cycle, e.pe.profPC)
	if !ok {
		e.refusedNet = true
		return false
	}
	e.pe.stats.SharedRefs.Inc()
	if op.ReturnsValue() {
		e.pe.stats.SharedLoads.Inc()
	}
	if to := e.pe.subs.For(obs.KindProfIssue, false); to != 0 {
		p := e.pe
		p.out.Emit(obs.Event{
			To: to, Cycle: e.cycle * p.scale, Kind: obs.KindProfIssue,
			PE: int32(p.id), Stage: -1, MM: -1, Copy: -1, Op: op,
			Aux: int32(p.profPC), Value: addr, Addr: p.pni.hash.Map(addr),
		})
	}
	return true
}

// ObserveCache points a cache the core owns at its PE's event sink; the
// core calls it before the cache's first access.
func (e *Env) ObserveCache(c *cache.Cache) { c.Observe(e.pe.subs, e.pe.out, e.pe.id) }

// Pending reports how many of this PE's shared-memory requests are still
// outstanding (stores awaiting acknowledgement included).
func (e *Env) Pending() int { return e.pe.pni.Outstanding() }
