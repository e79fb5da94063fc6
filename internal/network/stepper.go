package network

import (
	"encoding/binary"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// Stepper drives a Network cycle by cycle through an engine.Engine. It
// decomposes one network step into a sequence of barrier-separated
// phases, each a loop over units that touch disjoint state, so the
// phases can be sharded across workers:
//
//	forward:  PNI links → stage 0, stage s → s+1, last stage → MNIs
//	reverse:  deferred decombine registers, MNI links → last stage,
//	          stage s → s−1, stage 0 → PE receive buffers
//
// The unit of every phase is one (copy, switch column) pair. The Omega
// wiring makes this a true partition: the perfect shuffle is a
// permutation, so each input line of a stage transition feeds exactly
// one destination switch, and a unit touches only its own feeder links
// plus its own switch's queues, wait buffers and deferred registers.
//
// The cycle is activity-driven: a phase visits only the units with an
// activity flag set on one of their feeder links, and a unit pumps only
// its flagged links (see activity). A skipped pump is exactly a no-op,
// so skipping changes host time and nothing else.
//
// Determinism contract (see DESIGN.md): units are visited in ascending
// unit order and execute their feeder lines in ascending line order,
// and shards are fixed by engine.Shard, never by map order or
// scheduling. Every unit — a (copy, switch) pair, a PE, a memory-module
// port — writes through a sink: the shared Stats and the network's
// fan-out on the serial engine. Under a parallel engine, counters go to
// scratch (integer sums are order-free), events go to the unit's one
// buffer, drained in unit order into the fan-out after each phase, and
// round-trip latencies are buffered per PE and replayed in PE order —
// exactly the sequence a serial engine produces inline, for every
// consumer at once: byte-identical runs by construction.
type Stepper struct {
	n   *Network
	eng engine.Engine
	par bool

	group int // switches per stage per copy
	units int // copies × group

	// ports holds the sink of port i's PE-side and MM-side phases at
	// i&portMask: a serial engine has one for all (portMask 0), a
	// parallel engine one per port over the scratch below (portMask -1).
	ports    []sink
	portMask int

	// Parallel-only scratch, merged deterministically each cycle.
	wstats    []Stats           // per-worker integer counters (switch phases)
	portStats []Stats           // per-port counters: PE i's phases and MM i's dequeues
	swEvents  []obs.EventBuffer // per (copy, switch) unit
	peEvents  []obs.EventBuffer // per PE (collect + tick phases)
	rtBuf     [][]int64         // per-PE round-trip latencies

	// Phase bodies are hoisted here so Step allocates nothing: each
	// closure is built once in NewStepper and reads its per-cycle inputs
	// from phCycle/phStage, set by the coordinator between barriers.
	// phStage is the stage whose links the phase pumps: -1 for the PNI
	// links on the forward path, Stages for the MNI links on the reverse.
	phCycle    int64
	phStage    int
	phFwd      unitFunc
	phDeferred unitFunc
	phRev      unitFunc

	// phase()'s own shard body and its inputs, hoisted the same way:
	// the unit body, the flag array that says which units have work and
	// how many of its bytes belong to each unit.
	phaseRun   unitFunc
	phaseFlags []uint8
	phasePer   int
	phaseBody  func(lo, hi, w int)
}

// unitFunc is the body of one phase for one (copy, switch) unit.
type unitFunc func(ci, sw int, sk *sink)

// NewStepper builds a stepper for n driven by eng (nil means the serial
// engine). The network's consumers must be attached before the first
// Step.
func NewStepper(n *Network, eng engine.Engine) *Stepper {
	if eng == nil {
		eng = engine.Serial{}
	}
	t := newTopology(n.cfg.K, n.cfg.Stages)
	st := &Stepper{
		n:     n,
		eng:   eng,
		par:   eng.Workers() > 0,
		group: t.group,
		units: len(n.copies) * t.group,
	}
	st.buildPhases(t)
	st.ports = []sink{{stats: &n.stats, subs: n.fan.Subs(), out: &n.fan}}
	if st.par {
		ports := n.Ports()
		st.wstats = make([]Stats, eng.Workers())
		st.portStats = make([]Stats, ports)
		st.swEvents = make([]obs.EventBuffer, st.units)
		st.peEvents = make([]obs.EventBuffer, ports)
		st.rtBuf = make([][]int64, ports)
		st.ports, st.portMask = make([]sink, ports), -1
		for i := range st.ports {
			st.ports[i] = sink{stats: &st.portStats[i], subs: n.fan.Subs(), out: &st.peEvents[i], rt: &st.rtBuf[i]}
		}
	}
	return st
}

// buildPhases constructs every phase closure once. The bodies read the
// cycle and the stage index from phCycle/phStage, which the Step
// coordinator sets between engine barriers, so driving a cycle allocates
// nothing. A unit's k flags sit side by side in the phase's flag array
// at its switch's slots; the flag at slot p stands for line
// fwdLine/revLine(p), ascending with p. A pump that leaves its server
// inactive found the queue empty, so the unit — the link's owner in this
// phase — clears the flag.
func (st *Stepper) buildPhases(t topology) {
	st.phFwd = func(ci, sw int, sk *sink) {
		c, s := st.n.copies[ci], st.phStage
		flags := st.phaseFlags[c.base:]
		for p := sw * t.k; p < (sw+1)*t.k; p++ {
			if flags[p] != 0 && !c.pumpRequest(st.phCycle, s, t.fwdLine(s, p), sk) {
				flags[p] = 0
			}
		}
	}
	st.phDeferred = func(ci, sw int, sk *sink) {
		st.n.copies[ci].flushDeferredSwitch(sw, st.phCycle, sk)
	}
	st.phRev = func(ci, sw int, sk *sink) {
		c, s := st.n.copies[ci], st.phStage
		flags := st.phaseFlags[c.base:]
		for p := sw * t.k; p < (sw+1)*t.k; p++ {
			if flags[p] != 0 && !c.pumpReply(st.phCycle, s, t.revLine(s, p), sk) {
				flags[p] = 0
			}
		}
	}
	st.phaseBody = func(lo, hi, w int) {
		sk := sink{stats: &st.wstats[w], subs: st.n.fan.Subs()}
		st.sweep(lo, hi, &sk)
	}
}

// sweep runs the current phase over the units in [lo, hi) that have a
// non-zero byte among their phasePer flags, in ascending unit order.
// Idle stretches are skipped eight flags per 64-bit load; the loads stay
// inside the caller's own units, which under a parallel engine are the
// only flags no other worker writes during the phase.
func (st *Stepper) sweep(lo, hi int, sk *sink) {
	flags, per := st.phaseFlags, st.phasePer
	stride := 8 / per // whole units one 64-bit load covers; 0 for wider units
	ci := lo / st.group
	for u, end := lo, hi*per; u < hi; u++ {
		i := u * per
		// The tight loop: a large, lightly loaded machine spends its
		// network time here.
		for stride > 0 && i+8 <= end && binary.LittleEndian.Uint64(flags[i:]) == 0 {
			u += stride
			i += stride * per
		}
		if u >= hi || !anySet(flags[i:i+per]) {
			continue
		}
		if st.par {
			sk.out = &st.swEvents[u]
		}
		for u >= (ci+1)*st.group {
			ci++
		}
		st.phaseRun(ci, u-ci*st.group, sk)
	}
}

func anySet(flags []uint8) bool {
	for _, f := range flags {
		if f != 0 {
			return true
		}
	}
	return false
}

// Parallel reports whether a real worker pool is attached (observability
// is buffered and must be flushed).
func (st *Stepper) Parallel() bool { return st.par }

// phase runs one network movement phase over the (copy, switch) units
// that flags — per bytes to a unit — marks active. run must only touch
// state owned by its unit.
func (st *Stepper) phase(run unitFunc, flags []uint8, per int) {
	st.phaseRun, st.phaseFlags, st.phasePer = run, flags, per
	if !st.par {
		st.sweep(0, st.units, &st.ports[0])
		return
	}
	st.eng.Run(st.units, st.phaseBody)
	st.drain(st.swEvents)
}

// drain replays a set of unit buffers into the network's fan-out in unit
// order. With no consumer attached no site emits, so nothing is buffered.
func (st *Stepper) drain(bufs []obs.EventBuffer) {
	if *st.n.fan.Subs() == 0 {
		return
	}
	for u := range bufs {
		bufs[u].DrainTo(&st.n.fan)
	}
}

// Step advances every copy one network cycle; under any engine it
// produces the same state and statistics.
//
// Both paths are pumped upstream-first — PNI links, then stages 0..D−1
// going forward; deferred decombine registers, MNI links, then stages
// D−1..0 coming back — so a message delivered into a queue this cycle
// can begin service the same cycle and an unloaded header advances one
// stage per cycle, while the ready-at-start+1 rule in the pumps bounds
// every message to at most one hop per cycle.
func (st *Stepper) Step(cycle int64) {
	stages, k := st.n.cfg.Stages, st.n.cfg.K
	act := st.n.act
	st.phCycle = cycle

	for s := -1; s < stages; s++ {
		st.phStage = s
		st.phase(st.phFwd, act.fwd[s+1], k)
	}

	st.phase(st.phDeferred, act.deferred, 1)
	for s := stages; s >= 0; s-- {
		st.phStage = s
		st.phase(st.phRev, act.rev[s], k)
	}

	for w := range st.wstats {
		st.n.stats.takeCombines(&st.wstats[w])
	}
}

// Inject offers a request at PE pe's network interface. Copies are tried
// round-robin; Inject reports false when every copy's PNI queue is full
// (the PE must retry next cycle). r.PE must equal pe. Safe to call from
// the PE-tick phase worker that owns pe.
func (st *Stepper) Inject(pe int, r msg.Request, cycle int64) bool {
	return st.n.inject(pe, r, cycle, &st.ports[pe&st.portMask])
}

// Collect drains the replies fully received at PE pe, recording
// round-trip latencies; the returned slice is only valid until pe's next
// Collect. Safe to call from the collect-phase worker that owns pe.
// Under a parallel engine the latency observations are buffered and
// replayed by FlushCollect.
func (st *Stepper) Collect(pe int, cycle int64) []msg.Reply {
	return st.n.collect(pe, cycle, &st.ports[pe&st.portMask])
}

// MMDequeue removes the next fully assembled request waiting at memory
// module mm; safe to call from the MM-phase worker that owns mm.
func (st *Stepper) MMDequeue(mm int) (msg.Request, bool) {
	return st.n.mmDequeue(mm, &st.ports[mm&st.portMask])
}

// PESink returns where PE pe emits its own events (stalls, cache,
// profiler moments): the network's audience and, under the serial engine
// its fan-out, under a parallel one the buffer pe's network events share,
// so that they interleave as inline; the flushes drain it.
func (st *Stepper) PESink(pe int) (*obs.Subs, obs.Probe) {
	sk := &st.ports[pe&st.portMask]
	return sk.subs, sk.out
}

// FlushCollect merges the collect phase's buffers: round-trip
// latencies replayed in PE order (exactly the serial observation
// sequence — the Welford mean is order-sensitive), reply counts, and
// the PEs' buffered events.
func (st *Stepper) FlushCollect() {
	s := &st.n.stats
	for pe := range st.rtBuf {
		for _, lat := range st.rtBuf[pe] {
			s.observeRT(lat)
		}
		st.rtBuf[pe] = st.rtBuf[pe][:0]
		take(&s.RepliesDelivered, &st.portStats[pe].RepliesDelivered)
	}
	st.DrainPEEvents()
}

// FlushInject merges the tick phase's buffers: per-PE injection counts
// and the PEs' buffered events.
func (st *Stepper) FlushInject() {
	for pe := range st.portStats {
		take(&st.n.stats.Injected, &st.portStats[pe].Injected)
	}
	st.DrainPEEvents()
}

// DrainPEEvents replays the PEs' buffered events in PE order. The
// flushes call it; phases that buffer events without touching network
// counters (IdealMemory ticks) call it directly.
func (st *Stepper) DrainPEEvents() { st.drain(st.peEvents) }

// FlushMM merges the MM phase's delivered-to-MM counts. The modules'
// own events are the bank's to flush (memory.Bank.Flush).
func (st *Stepper) FlushMM() {
	for mm := range st.portStats {
		take(&st.n.stats.DeliveredToMM, &st.portStats[mm].DeliveredToMM)
	}
}
