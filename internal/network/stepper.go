package network

import (
	"encoding/binary"
	"math/bits"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// Stepper drives a Network cycle by cycle. It decomposes one network
// step into a sequence of phases, each a sweep over (copy, switch column)
// units in ascending order:
//
//	forward:  PNI links → stage 0, stage s → s+1, last stage → MNIs
//	reverse:  deferred decombine registers, MNI links → last stage,
//	          stage s → s−1, stage 0 → PE receive buffers
//
// The Omega wiring makes the unit a true partition: the perfect shuffle
// is a permutation, so each input line of a stage transition feeds
// exactly one destination switch, and a unit touches only its own feeder
// links plus its own switch's queues, wait buffers and deferred
// registers.
//
// The cycle is activity-driven: a phase pumps only the links whose
// activity flag says they need it this cycle (see activity). A skipped
// pump is exactly a no-op, so skipping changes host time and nothing
// else.
//
// Determinism contract (see DESIGN.md): units are visited in ascending
// unit order and execute their feeder lines in ascending line order, on
// the calling goroutine. Every site counts into the network's Stats and
// emits into its fan-out inline, so same-seed runs are byte-identical.
type Stepper struct {
	n *Network
}

// phaseKind says what sweep does at a flagged position.
type phaseKind uint8

const (
	phForward  phaseKind = iota // pumpRequest the link
	phDeferred                  // flushDeferred the unit
	phReverse                   // pumpReply the link
)

// NewStepper builds a stepper for n. Every phase runs inline, so the
// engine is not used; the parameter remains for the benchmark's drivers.
// The network's consumers must be attached before the first Step.
func NewStepper(n *Network, _ engine.Engine) *Stepper {
	return &Stepper{n: n}
}

// sweep runs one phase of cycle over the positions of flags in ascending
// order, which is ascending unit order and ascending position within a
// unit: unit u's per flags sit side by side at [u·per, (u+1)·per), flag
// p of a link phase is the link record at position p of stage s (see
// activity), and u is the switch that link feeds. One 64-bit load reads
// eight flags and the set ones are taken from that word, lowest first —
// a visit writes no flag of the phase but its own, so the word stays
// true. Only the last, shorter-than-eight stretch is assembled bytewise.
// A link flag above 1 is a dormant link, counted down without loading
// the record; any other set flag is pumped and takes the value the pump
// returns. This is the tight loop: a large, lightly loaded machine spends
// its network time here.
func (st *Stepper) sweep(kind phaseKind, cycle int64, s int, flags []uint8, per int) {
	n := st.n
	end := len(flags)
	u, uEnd := 0, 0 // the last unit visited and the end of its positions
	for p := 0; p < end; p += 8 {
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
			}
			switch kind {
			case phForward:
				flags[q] = n.pumpRequest(cycle, s, u, q)
			case phReverse:
				flags[q] = n.pumpReply(cycle, s, u, q)
			case phDeferred:
				n.flushDeferred(u, cycle)
			}
		}
	}
}

// Step advances every copy one network cycle.
//
// Both paths are pumped upstream-first — PNI links, then stages 0..D−1
// going forward; deferred decombine registers, MNI links, then stages
// D−1..0 coming back — so a message delivered into a queue this cycle
// can begin service the same cycle and an unloaded header advances one
// stage per cycle, while the ready-at-start+1 rule in the pumps bounds
// every message to at most one hop per cycle.
func (st *Stepper) Step(cycle int64) {
	t, act := st.n.topo, &st.n.act
	for s := -1; s < t.stages; s++ {
		st.sweep(phForward, cycle, s, act.fwd[(s+1)*t.lines:(s+2)*t.lines], t.k)
	}

	st.sweep(phDeferred, cycle, 0, act.deferred, 1)
	for s := t.stages; s >= 0; s-- {
		st.sweep(phReverse, cycle, s, act.rev[s*t.lines:(s+1)*t.lines], t.k)
	}
}

// Inject offers a request at PE pe's network interface. Copies are tried
// round-robin; Inject reports false when every copy's PNI queue is full
// (the PE must retry next cycle). r.PE must equal pe.
func (st *Stepper) Inject(pe int, r msg.Request, cycle int64) bool {
	return st.n.inject(pe, r, cycle)
}

// Collect drains the replies fully received at PE pe, recording
// round-trip latencies; the returned slice is only valid until pe's next
// Collect.
func (st *Stepper) Collect(pe int, cycle int64) []msg.Reply {
	return st.n.collect(pe, cycle)
}

// MMDequeue removes the next fully assembled request waiting at memory
// module mm.
func (st *Stepper) MMDequeue(mm int) (msg.Request, bool) {
	return st.n.mmDequeue(mm)
}

// PESink returns where the PEs the network carries emit their own events
// (stalls, cache, profiler moments): the network's audience and fan-out,
// so that a PE's events interleave with the network's for it in emission
// order.
func (st *Stepper) PESink() (*obs.Subs, obs.Probe) {
	return st.n.fan.Subs(), &st.n.fan
}

// FlushInject, FlushMM and FlushCollect do nothing: every site counts and
// emits inline. They remain for the benchmark's cycle driver
// (bench/net.go), which calls them between its phases.
func (st *Stepper) FlushInject()  {}
func (st *Stepper) FlushMM()      {}
func (st *Stepper) FlushCollect() {}
