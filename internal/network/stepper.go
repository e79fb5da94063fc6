package network

import (
	"encoding/binary"
	"math/bits"

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
// The cycle is activity-driven: a phase pumps only the links whose
// activity flag says they need it this cycle (see activity). A skipped
// pump is exactly a no-op, so skipping changes host time and nothing
// else.
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

	units int // copies × switches per stage

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

	// The phase in progress, set by the coordinator between barriers so
	// that driving a cycle allocates nothing: what a flagged position
	// means (phKind), the cycle, the stage whose links it pumps (-1 for
	// the PNI links on the forward path, Stages for the MNI links on the
	// reverse), the flags that say which positions have work and how many
	// of them belong to each unit. phaseBody is the one shard body handed
	// to the engine, built once in NewStepper.
	phKind     phaseKind
	phCycle    int64
	phStage    int
	phaseFlags []uint8
	phasePer   int
	phaseBody  func(lo, hi, w int)
}

// phaseKind says what sweep does at a flagged position.
type phaseKind uint8

const (
	phForward  phaseKind = iota // pumpRequest the link
	phDeferred                  // flushDeferred the unit
	phReverse                   // pumpReply the link
)

// NewStepper builds a stepper for n driven by eng (nil means the serial
// engine). The network's consumers must be attached before the first
// Step.
func NewStepper(n *Network, eng engine.Engine) *Stepper {
	if eng == nil {
		eng = engine.Serial{}
	}
	st := &Stepper{
		n:     n,
		eng:   eng,
		par:   eng.Workers() > 0,
		units: n.topo.lines / n.topo.k,
	}
	st.phaseBody = func(lo, hi, w int) {
		sk := sink{stats: &st.wstats[w], subs: st.n.fan.Subs()}
		st.sweep(lo, hi, &sk)
	}
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

// sweep runs the current phase over the units in [lo, hi) in ascending
// position, which is ascending unit order and ascending position within a
// unit: unit u's phasePer flags sit side by side at [u·phasePer,
// (u+1)·phasePer) of phaseFlags, flag p of a link phase is the link record
// at position p of the stage (see activity), and u is the switch that link
// feeds. One 64-bit load reads eight flags and the set ones are taken from
// that word, lowest first — a visit writes no flag of the phase but its
// own, so the word stays true. Only the last, shorter-than-eight stretch
// is assembled bytewise: the loads stay inside the caller's own units,
// which under a parallel engine are the only flags no other worker writes
// during the phase. A link flag above 1 is a dormant link, counted down
// without loading the record; any other set flag is pumped and takes the
// value the pump returns. This is the tight loop: a large, lightly loaded
// machine spends its network time here.
func (st *Stepper) sweep(lo, hi int, sk *sink) {
	n, kind, cycle, s := st.n, st.phKind, st.phCycle, st.phStage
	flags, per, par := st.phaseFlags, st.phasePer, st.par
	end := hi * per
	u, uEnd := 0, 0 // the last unit visited and the end of its positions
	for p := lo * per; p < end; p += 8 {
		var w uint64
		if p+8 <= end {
			w = binary.LittleEndian.Uint64(flags[p:])
		} else {
			for i, f := range flags[p:end] {
				w |= uint64(f) << (8 * i)
			}
		}
		for w != 0 {
			sh := bits.TrailingZeros64(w) &^ 7
			f := uint8(w >> sh)
			w &^= 0xff << sh
			q := p + sh>>3
			if f > 1 && kind != phDeferred { // a deferred "flag" is a count
				flags[q] = f - 1
				continue
			}
			if q >= uEnd {
				u = int(uint32(q) / uint32(per)) // positions fit: Config.Validate
				uEnd = (u + 1) * per
				if par {
					sk.out = &st.swEvents[u]
				}
			}
			switch kind {
			case phForward:
				flags[q] = n.pumpRequest(cycle, s, u, q, sk)
			case phReverse:
				flags[q] = n.pumpReply(cycle, s, u, q, sk)
			case phDeferred:
				n.flushDeferred(u, cycle, sk)
			}
		}
	}
}

// Parallel reports whether a real worker pool is attached (observability
// is buffered and must be flushed).
func (st *Stepper) Parallel() bool { return st.par }

// phase runs one network movement phase over the (copy, switch) units
// that flags — per bytes to a unit — marks active. A unit's work must
// only touch state it owns in that phase.
func (st *Stepper) phase(kind phaseKind, stage int, flags []uint8, per int) {
	st.phKind, st.phStage, st.phaseFlags, st.phasePer = kind, stage, flags, per
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
	t, act := st.n.topo, &st.n.act
	st.phCycle = cycle
	if st.n.mmIn[0].entries == nil { // only a Step pushes into an MM arrival queue
		st.n.carve() //ultravet:ok hotalloc one-time carve of the queue slabs before the network's first cycle
	}

	for s := -1; s < t.stages; s++ {
		st.phase(phForward, s, act.fwd[(s+1)*t.lines:(s+2)*t.lines], t.k)
	}

	st.phase(phDeferred, 0, act.deferred, 1)
	for s := t.stages; s >= 0; s-- {
		st.phase(phReverse, s, act.rev[s*t.lines:(s+1)*t.lines], t.k)
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
