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
// scheduling. Under a parallel
// engine, counters go to per-worker scratch (integer sums are
// order-free), events go to per-unit buffers drained in unit order
// after each phase, and round-trip latencies are buffered per PE and
// replayed in PE order — exactly the sequence a serial engine produces
// inline. The request-tracing stream (Network.SetTracer) gets per-unit
// buffer twins with the same drain discipline, so span trees are
// byte-identical too. Serial and parallel runs are therefore
// byte-identical by construction.
type Stepper struct {
	n   *Network
	eng engine.Engine
	par bool

	group int // switches per stage per copy
	units int // copies × group

	// Parallel-only scratch, merged deterministically each cycle.
	wstats      []Stats           // per-worker integer counters
	swEvents    []obs.EventBuffer // per (copy, switch) unit
	peEvents    []obs.EventBuffer // per PE (collect + tick phases)
	mmEvents    []obs.EventBuffer // per MM (memory phase)
	swTrace     []obs.EventBuffer // trace-stream twins of the above three:
	peTrace     []obs.EventBuffer // hop events of traced requests, drained
	mmTrace     []obs.EventBuffer // in the same unit order to the tracer
	rtBuf       [][]int64         // per-PE round-trip latencies
	peInjected  []int64
	peDelivered []int64
	mmDelivered []int64
	collectFns  []func(lat int64, known bool)

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
	// how many of its bytes belong to each unit. serialSink is the
	// reused serial-path sink.
	phaseRun    unitFunc
	phaseFlags  []uint8
	phasePer    int
	phaseProbed bool
	phaseTraced bool
	phaseBody   func(lo, hi, w int)
	serialSink  sink

	// nprof holds the guest profiler's per-worker combine shards
	// (SetProfShards); nil when profiling is off.
	nprof []NetProfiler
}

// unitFunc is the body of one phase for one (copy, switch) unit.
type unitFunc func(ci, sw int, sk *sink)

// NewStepper builds a stepper for n driven by eng (nil means the serial
// engine). The network's probe must be attached before the first Step.
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
	if st.par {
		ports := n.Ports()
		st.wstats = make([]Stats, eng.Workers())
		st.swEvents = make([]obs.EventBuffer, st.units)
		st.peEvents = make([]obs.EventBuffer, ports)
		st.mmEvents = make([]obs.EventBuffer, ports)
		st.swTrace = make([]obs.EventBuffer, st.units)
		st.peTrace = make([]obs.EventBuffer, ports)
		st.mmTrace = make([]obs.EventBuffer, ports)
		st.rtBuf = make([][]int64, ports)
		st.peInjected = make([]int64, ports)
		st.peDelivered = make([]int64, ports)
		st.mmDelivered = make([]int64, ports)
		st.collectFns = make([]func(int64, bool), ports)
		for pe := range st.collectFns {
			pe := pe
			st.collectFns[pe] = func(lat int64, known bool) {
				if known {
					st.rtBuf[pe] = append(st.rtBuf[pe], lat)
				}
				st.peDelivered[pe]++
			}
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
		sk := sink{stats: &st.wstats[w]}
		if st.nprof != nil {
			sk.prof = st.nprof[w]
		}
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
		if st.phaseProbed {
			sk.probe = &st.swEvents[u]
		}
		if st.phaseTraced {
			sk.trace = &st.swTrace[u]
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

// SetProfShards gives each engine worker its own guest-profiler combine
// shard (len must be eng.Workers(); nil detaches). Only meaningful with
// a parallel engine — the serial path uses Network.SetProfiler.
func (st *Stepper) SetProfShards(shards []NetProfiler) { st.nprof = shards }

// Engine exposes the engine driving this stepper, for callers that
// shard their own phases (machine.Step, trace.Run).
func (st *Stepper) Engine() engine.Engine { return st.eng }

// phase runs one network movement phase over the (copy, switch) units
// that flags — per bytes to a unit — marks active. run must only touch
// state owned by its unit.
func (st *Stepper) phase(run unitFunc, flags []uint8, per int) {
	n := st.n
	st.phaseRun, st.phaseFlags, st.phasePer = run, flags, per
	if !st.par {
		st.serialSink = sink{stats: &n.stats, probe: n.probe, trace: n.trace, prof: n.prof}
		st.sweep(0, st.units, &st.serialSink)
		return
	}
	st.phaseProbed = n.probe != nil
	st.phaseTraced = n.trace != nil
	st.eng.Run(st.units, st.phaseBody)
	if st.phaseProbed {
		for u := range st.swEvents {
			st.swEvents[u].DrainTo(n.probe)
		}
	}
	if st.phaseTraced {
		for u := range st.swTrace {
			st.swTrace[u].DrainTo(n.trace)
		}
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

	if st.par {
		for w := range st.wstats {
			st.n.stats.addCounts(&st.wstats[w])
			st.wstats[w].resetCounts()
		}
	}
}

// Inject is Network.Inject routed through the stepper's sinks; safe to
// call from the PE-tick phase worker that owns pe.
func (st *Stepper) Inject(pe int, r msg.Request, cycle int64) bool {
	if !st.par {
		return st.n.Inject(pe, r, cycle)
	}
	var pr, tr obs.Probe
	if st.n.probe != nil {
		pr = &st.peEvents[pe]
	}
	if st.n.trace != nil {
		tr = &st.peTrace[pe]
	}
	if st.n.injectInto(pe, r, cycle, pr, tr) {
		st.peInjected[pe]++
		return true
	}
	return false
}

// Collect drains PE pe's replies; safe to call from the collect-phase
// worker that owns pe. Under a parallel engine the latency
// observations are buffered and replayed by FlushCollect.
func (st *Stepper) Collect(pe int, cycle int64) []msg.Reply {
	if !st.par {
		return st.n.Collect(pe, cycle)
	}
	var pr, tr obs.Probe
	if st.n.probe != nil {
		pr = &st.peEvents[pe]
	}
	if st.n.trace != nil {
		tr = &st.peTrace[pe]
	}
	return st.n.collectInto(pe, cycle, st.collectFns[pe], pr, tr)
}

// MMDequeue is Network.MMDequeue routed through the stepper's sinks;
// safe to call from the MM-phase worker that owns mm.
func (st *Stepper) MMDequeue(mm int) (msg.Request, bool) {
	if !st.par {
		return st.n.MMDequeue(mm)
	}
	r, ok := st.n.mmDequeue(mm)
	if ok {
		st.mmDelivered[mm]++
	}
	return r, ok
}

// PEProbe returns the probe PE pe must emit through while driven by
// this stepper: the real probe when serial, pe's event buffer when
// parallel (drained in PE order by the flushes).
func (st *Stepper) PEProbe(pe int) obs.Probe {
	if !st.par || st.n.probe == nil {
		return st.n.probe
	}
	return &st.peEvents[pe]
}

// MMProbe is PEProbe for memory module mm.
func (st *Stepper) MMProbe(mm int) obs.Probe {
	if !st.par || st.n.probe == nil {
		return st.n.probe
	}
	return &st.mmEvents[mm]
}

// MMTrace returns the trace stream memory module mm must emit through
// while driven by this stepper: the tracer itself when serial, mm's
// trace buffer when parallel (drained in MM order by FlushMM).
func (st *Stepper) MMTrace(mm int) obs.Probe {
	if !st.par || st.n.trace == nil {
		return st.n.trace
	}
	return &st.mmTrace[mm]
}

// FlushCollect merges the collect phase's buffers: round-trip
// latencies replayed in PE order (exactly the serial observation
// sequence — the Welford mean is order-sensitive), reply counts, and
// the PEs' buffered events.
func (st *Stepper) FlushCollect() {
	if !st.par {
		return
	}
	s := &st.n.stats
	for pe := range st.rtBuf {
		for _, lat := range st.rtBuf[pe] {
			s.RoundTrip.Observe(float64(lat))
			if s.RoundTripHist != nil {
				s.RoundTripHist.Observe(lat)
			}
		}
		st.rtBuf[pe] = st.rtBuf[pe][:0]
		s.RepliesDelivered.Add(st.peDelivered[pe])
		st.peDelivered[pe] = 0
	}
	st.DrainPEEvents()
}

// FlushInject merges the tick phase's buffers: per-PE injection counts
// and the PEs' buffered events.
func (st *Stepper) FlushInject() {
	if !st.par {
		return
	}
	for pe := range st.peInjected {
		st.n.stats.Injected.Add(st.peInjected[pe])
		st.peInjected[pe] = 0
	}
	st.DrainPEEvents()
}

// DrainPEEvents replays the PEs' buffered events in PE order. The
// flushes call it; phases that buffer events without touching network
// counters (IdealMemory ticks) call it directly.
func (st *Stepper) DrainPEEvents() {
	if !st.par {
		return
	}
	if st.n.probe != nil {
		for pe := range st.peEvents {
			st.peEvents[pe].DrainTo(st.n.probe)
		}
	}
	if st.n.trace != nil {
		for pe := range st.peTrace {
			st.peTrace[pe].DrainTo(st.n.trace)
		}
	}
}

// FlushMM merges the MM phase's buffers: delivered-to-MM counts and
// the modules' buffered events, in MM order.
func (st *Stepper) FlushMM() {
	if !st.par {
		return
	}
	for mm := range st.mmDelivered {
		st.n.stats.DeliveredToMM.Add(st.mmDelivered[mm])
		st.mmDelivered[mm] = 0
	}
	if st.n.probe != nil {
		for mm := range st.mmEvents {
			st.mmEvents[mm].DrainTo(st.n.probe)
		}
	}
	if st.n.trace != nil {
		for mm := range st.mmTrace {
			st.mmTrace[mm].DrainTo(st.n.trace)
		}
	}
}
