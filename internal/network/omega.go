package network

import (
	"math"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// fwdLink is one link of the forward (PE → MM) path: the queue that feeds
// it — a PNI output queue or a switch's ToMM queue — and, side by side,
// the server that transmits the queue's head message across it. A message
// of P packets occupies the link for P cycles; its header is deliverable
// to the next stage one cycle after service starts (cut-through), so an
// unloaded network adds one cycle of delay per stage plus the pipe-setting
// time (§4.1's "+ m − 1" term). Delivery into a memory module waits for
// the full message (the MNI assembles requests, §3.4).
type fwdLink struct {
	q         reqQueue
	active    bool // req is in service
	delivered bool // req's header has been accepted downstream
	start     int64
	req       msg.Request
}

// revLink is the reverse-path (MM → PE) equivalent of fwdLink: an MNI
// output queue or a switch's ToPE queue, and the link's server.
type revLink struct {
	q         repQueue
	active    bool
	delivered bool
	start     int64
	rep       msg.Reply
	// wb is the wait buffer of the MM-side switch port this link arrives
	// at, i.e. of the ToMM queue of stage s−1, line p for the link at
	// position p of stage s: every reply the link delivers is matched
	// against exactly that buffer, so it lives in the record the pump
	// already holds. Unused on the links into the PEs (stage 0).
	wb waitBuffer
}

// activity holds the per-link activity flags that make a network cycle
// cost host time in proportion to the messages in flight rather than to
// the size of the machine. Every link has one byte, which says when the
// link next needs its pump:
//
//	0      its queue is empty and its server idle or done — the message
//	       delivered, its tail left for the pump a push triggers to check:
//	       pumping it is a no-op until somebody pushes, so it is skipped
//	1      pump it next cycle
//	n > 1  a pump is a no-op for n − 1 more cycles, whatever is queued
//	       behind: the message is delivered and its tail holds the link,
//	       or an end stage (MNI, PNI) is assembling it; the Stepper counts
//	       the flag down instead, without loading the record
//
// A flag is set to 1 by whoever pushes into the link's queue and otherwise
// written only by the sweep that owns the link: the value its pump
// returned, or the count-down. A push onto a dormant link thus costs at
// most one no-op pump, which returns the remainder, so skipping is exact
// (see DESIGN.md, "Link records and activity flags"). A flag is a byte,
// not a bit, because it carries that count-down.
//
// fwd and rev run parallel to Network.fwd and Network.rev: flag i is link
// record i's (see fwdAt, revAt). Within a stage they are indexed by
// *position*: the slot of the switch port the link feeds, so that the k
// links a (copy, switch) unit pumps in one phase are the k consecutive
// bytes [u·k, u·k+k) of unit u and the Stepper reads eight links' flags
// with one 64-bit load.
type activity struct {
	fwd []uint8
	rev []uint8
	mm  []uint8 // [ci·n+mm]: mmIn may hold an arrival for the module
	pe  []uint8 // [ci·n+pe]: peRecv holds replies to collect
	// deferred counts, per (copy, switch column) unit, the valid revDefer
	// registers over all stages (at most one per stage, and Stages <= 20).
	deferred []uint8
}

// newActivity carves every flag array of a network out of one
// allocation.
func newActivity(t *topology) activity {
	cols := t.stages + 1
	buf := make([]uint8, t.lines*(2*cols+2)+t.lines/t.k)
	carve := func(n int) []uint8 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return activity{
		fwd: carve(cols * t.lines), rev: carve(cols * t.lines),
		mm: carve(t.lines), pe: carve(t.lines), deferred: carve(t.lines / t.k),
	}
}

// fwdAt returns the index — of record and flag alike — of the forward
// link out of stage s, line l (s == -1: PE l's PNI link). Links between
// stages are owned by the switch they feed, which the shuffle wires to
// lines j·N/k+sw, so they are stored shuffled; the last stage's links are
// owned by their own switch and stored in line order. Ascending positions
// within a unit are ascending lines either way.
func (n *Network) fwdAt(s, l int) int {
	t := n.topo
	if s < t.stages-1 {
		l = int(t.shuf[l])
	}
	return (s+1)*t.lines + l
}

// revAt is fwdAt for the reverse link out of stage s, line l (s == stages:
// MM l's MNI link): links between stages are stored unshuffled, which
// makes position p of stage s MM-side port p of stage s−1; the MNI links
// and stage 0's links into the PEs are stored in line order.
func (n *Network) revAt(s, l int) int {
	t := n.topo
	if s > 0 && s < t.stages {
		l = int(t.unshuf[l])
	}
	return s*t.lines + l
}

// pushFwd queues a copy of *r on forward link at (a fwdAt index), of
// the given capacity, and flags the link; pushRev is its reverse twin.
// They are the only places a message enters a link, which is what keeps
// "flag clear ⇒ queue empty" true, and beside the sweep the only writers
// of a link flag. The caller must have checked the queue's spaceFor.
func (n *Network) pushFwd(at int, r *msg.Request, capacity int) {
	n.fwd[at].q.push(r, capacity, &n.room.reqs)
	n.act.fwd[at] = 1
}

func (n *Network) pushRev(at int, rep *msg.Reply) {
	n.rev[at].q.push(rep, n.cfg.QueueCapacity, &n.room.reps)
	n.act.rev[at] = 1
}

// enqueueForward routes a request into the ToMM queue of switch u at
// stage s selected by the destination digit, attempting combination first
// (§3.3). It reports false when the request cannot be accepted this cycle.
func (n *Network) enqueueForward(s, u int, r *msg.Request, cycle int64) bool {
	t := n.topo
	l := u*t.k + t.digit(r.Addr.MM, s)
	at := n.fwdAt(s, l)
	q, capacity := &n.fwd[at].q, n.cfg.QueueCapacity
	// The port's wait buffer rides on the reverse link that arrives at it:
	// position l of stage s+1 (see revLink).
	w := &n.rev[(s+1)*t.lines+l].wb
	if n.cfg.Combining {
		if i := q.findCombinable(r, w); i >= 0 {
			if w.len() < n.cfg.WaitBufferCapacity {
				old := q.entries[i]
				fop, farg, aPlan, bPlan, ok := msg.Combine(old.Op, old.Operand, r.Op, r.Operand)
				if ok && q.updateCombined(i, fop, farg, capacity) {
					aTC, bTC := old.TC, r.TC
					if to := n.fan.Subs().For(obs.KindCombine, aTC.Traced() || bTC.Traced()); to != 0 {
						if to&obs.SubTrace != 0 {
							// Record genealogy completely: a combine
							// touching any traced request adopts the
							// untraced partner mid-flight, so the tree
							// a sampled request joins is whole. The
							// queued survivor's context is stamped onto
							// its entry so the combined request's
							// onward hops are recorded too.
							if !aTC.Traced() {
								aTC = msg.TraceCtx{Sampled: true, Hops: r.TC.Hops}
							}
							if !bTC.Traced() {
								bTC = msg.TraceCtx{Sampled: true, Hops: old.TC.Hops}
							}
							q.entries[i].TC = aTC
						}
						n.fan.Emit(obs.Event{
							To: to, Cycle: cycle, Kind: obs.KindCombine, PE: int32(r.PE),
							Stage: int8(s), MM: -1, Copy: int16(l / t.n),
							ID: r.ID, ID2: old.ID, Op: r.Op, Addr: r.Addr,
							Aux: int32(old.PE),
						})
					}
					w.add(waitRec{
						a: side{id: old.ID, pe: int32(old.PE), op: old.Op, issued: old.Issued, plan: aPlan, tc: aTC},
						b: side{id: r.ID, pe: int32(r.PE), op: r.Op, issued: r.Issued, plan: bPlan, tc: bTC},
					}, n.cfg.WaitBufferCapacity, &n.room.waits)
					n.stats.Combines.Inc()
					n.stats.addAtStage(s, 1)
					return true
				}
			}
		}
	}
	if !q.spaceFor(r.Packets(), capacity) {
		return false
	}
	n.pushFwd(at, r, capacity)
	if r.TC.Traced() {
		q.entries[len(q.entries)-1].TC.Hops++ // the queued copy's, not the sender's
	}
	if to := n.fan.Subs().For(obs.KindStageArrive, r.TC.Traced()); to != 0 {
		n.fan.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindStageArrive, PE: int32(r.PE),
			Stage: int8(s), MM: -1, Copy: int16(l / t.n),
			ID: r.ID, Op: r.Op, Addr: r.Addr, Aux: int32(q.occupancy()),
		})
	}
	return true
}

// deferredReply is a one-entry holding register for the second reply of a
// decombination whose ToPE queue was momentarily full.
type deferredReply struct {
	rep   msg.Reply
	at    int // revAt of the ToPE queue it waits for
	valid bool
}

// acceptReply receives the reply in service on link src, which arrives at
// switch u of stage s. If the reply's identity matches a record in the
// wait buffer of its arrival port (src.wb), the record is consumed and
// both original replies are synthesized and routed (decombination, §3.3);
// otherwise the reply is routed alone. It reports false when the required
// ToPE queue space is unavailable this cycle.
func (n *Network) acceptReply(s, u int, src *revLink, cycle int64) bool {
	t := n.topo
	d := &n.revDefer[u*t.stages+s]
	if d.valid {
		// The switch still holds an undelivered second reply; block
		// incoming replies until it drains.
		return false
	}
	rep := &src.rep
	if i := src.wb.find(rep.ID); i >= 0 {
		rec := &src.wb.recs[i]
		ra := synthReply(&rec.a, rep)
		rb := synthReply(&rec.b, rep)
		ata := n.revAt(s, u*t.k+t.digit(ra.PE, s))
		atb := n.revAt(s, u*t.k+t.digit(rb.PE, s))
		qa, qb := &n.rev[ata].q, &n.rev[atb].q
		if !qa.spaceFor(ra.Packets(), n.cfg.QueueCapacity) {
			return false
		}
		src.wb.remove(i)
		n.pushRev(ata, &ra)
		if to := n.fan.Subs().For(obs.KindDecombine, ra.TC.Traced() || rb.TC.Traced()); to != 0 {
			n.fan.Emit(obs.Event{
				To: to, Cycle: cycle, Kind: obs.KindDecombine, PE: -1,
				Stage: int8(s), MM: -1, Copy: int16(u / t.group),
				ID: rep.ID, ID2: rb.ID, Addr: ra.Addr, Value: rep.Value,
			})
		}
		n.emitReplyHop(s, u, &ra, cycle)
		// If qa == qb, qb's occupancy already includes ra.
		if qb.spaceFor(rb.Packets(), n.cfg.QueueCapacity) {
			n.pushRev(atb, &rb)
			n.emitReplyHop(s, u, &rb, cycle)
		} else {
			*d = deferredReply{rep: rb, at: atb, valid: true}
			n.act.deferred[u]++
		}
		n.stats.Decombines.Inc()
		return true
	}
	at := n.revAt(s, u*t.k+t.digit(rep.PE, s))
	if !n.rev[at].q.spaceFor(rep.Packets(), n.cfg.QueueCapacity) {
		return false
	}
	n.pushRev(at, rep)
	n.emitReplyHop(s, u, rep, cycle)
	return true
}

// emitReplyHop records a reply entering a ToPE queue of switch u at
// stage s.
func (n *Network) emitReplyHop(s, u int, rep *msg.Reply, cycle int64) {
	if to := n.fan.Subs().For(obs.KindReplyHop, rep.TC.Traced()); to != 0 {
		n.fan.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindReplyHop, PE: int32(rep.PE),
			Stage: int8(s), MM: -1, Copy: int16(u / n.topo.group),
			ID: rep.ID, Op: rep.Op, Addr: rep.Addr, Value: rep.Value,
		})
	}
}

// flushDeferred retries delivery of the held second replies of unit u, at
// every stage, into their ToPE queues. The Stepper calls it only for
// units whose act.deferred count is non-zero.
func (n *Network) flushDeferred(u int, cycle int64) {
	stages := n.topo.stages
	regs := n.revDefer[u*stages : (u+1)*stages]
	for s := range regs {
		d := &regs[s]
		if d.valid && n.rev[d.at].q.spaceFor(d.rep.Packets(), n.cfg.QueueCapacity) {
			n.pushRev(d.at, &d.rep)
			d.valid = false
			n.act.deferred[u]--
			n.emitReplyHop(s, u, &d.rep, cycle)
		}
	}
}

// synthReply builds the reply owed to one side of a combined pair from
// the combined reply (Figure 3): its value transformed by the side's plan,
// its copy and address (the pair's), and the side's own injection cycle
// and trace context, carried back toward the side's PE.
func synthReply(sd *side, combined *msg.Reply) msg.Reply {
	return msg.Reply{
		ID: sd.id, PE: int(sd.pe), Op: sd.op, Copy: combined.Copy, Addr: combined.Addr,
		Value: sd.plan.Synthesize(combined.Value), Issued: sd.issued, TC: sd.tc,
	}
}

// pumpRequest advances the forward link at position p of the links out of
// stage s (s == -1: the PNI links) and returns the next value of its
// activity flag (see activity). u = p/k is the unit that owns the link in
// this phase: the switch it feeds, or for the last stage the switch it
// leaves.
func (n *Network) pumpRequest(cycle int64, s, u, p int) uint8 {
	t := n.topo
	ln := &n.fwd[(s+1)*t.lines+p]
	lastStage := s == t.stages-1
	if ln.active && !ln.delivered {
		// A header is deliverable the cycle after its message entered
		// service, and no pump comes sooner; the MNI assembles the full
		// message before the MM sees it.
		if !lastStage {
			ln.delivered = n.enqueueForward(s+1, u, &ln.req, cycle)
		} else if rest := ln.start + int64(ln.req.Packets()) - cycle; rest > 0 {
			return uint8(rest)
		} else if in := &n.mmIn[p]; in.spaceFor(ln.req.Packets(), n.cfg.QueueCapacity) {
			// The last stage's links are stored in line order:
			// position p is copy p/N's module p%N.
			in.push(&ln.req, n.cfg.QueueCapacity, &n.room.reqs)
			n.act.mm[p] = 1
			ln.delivered = true
			if to := n.fan.Subs().For(obs.KindMMArrive, ln.req.TC.Traced()); to != 0 {
				n.fan.Emit(obs.Event{
					To: to, Cycle: cycle, Kind: obs.KindMMArrive, PE: int32(ln.req.PE),
					Stage: -1, MM: int32(p % t.n), Copy: int16(p / t.n),
					ID: ln.req.ID, Op: ln.req.Op, Addr: ln.req.Addr,
				})
			}
		}
	}
	if ln.active {
		if !ln.delivered {
			return 1
		}
		if ln.q.empty() {
			return 0 // the pump a push triggers checks the tail
		}
		if rest := ln.start + int64(ln.req.Packets()) - cycle; rest > 0 {
			return uint8(rest) // the tail holds the link until start+P
		}
		ln.active = false
	}
	if !ln.q.pop(&ln.req) {
		return 0
	}
	ln.active, ln.delivered, ln.start = true, false, cycle
	if to := n.fan.Subs().For(obs.KindStageDepart, ln.req.TC.Traced()); to != 0 {
		// Queue departure into the link server: together with the
		// matching StageArrive this brackets the hop's queueing delay
		// (Stage -1 is the PNI queue).
		n.fan.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindStageDepart, PE: int32(ln.req.PE),
			Stage: int8(s), MM: -1, Copy: int16(p / t.n),
			ID: ln.req.ID, Op: ln.req.Op, Addr: ln.req.Addr,
		})
	}
	if lastStage {
		return uint8(ln.req.Packets()) // the MNI has its last packet at start+P
	}
	return 1
}

// pumpReply advances the reverse link at position p of the links out of
// stage s (s == stages: the MNI links) and returns the next value of its
// activity flag, as pumpRequest does. The link arrives at switch u = p/k
// of stage s−1 — the shuffle that stored it at p and the unshuffle that
// retraces its wire cancel — or, for stage 0, at a PE.
func (n *Network) pumpReply(cycle int64, s, u, p int) uint8 {
	t := n.topo
	ln := &n.rev[s*t.lines+p]
	toPE := s == 0
	if ln.active && !ln.delivered {
		if !toPE {
			ln.delivered = n.acceptReply(s-1, u, ln, cycle)
		} else if rest := ln.start + int64(ln.rep.Packets()) - cycle; rest > 0 {
			return uint8(rest) // the PNI assembles the full reply before the PE sees it
		} else {
			pe := t.unshuf[p]
			n.peRecv[pe] = n.room.reps.grow(n.peRecv[pe], 1, math.MaxInt)
			n.peRecv[pe] = append(n.peRecv[pe], ln.rep)
			n.act.pe[pe] = 1
			ln.delivered = true
		}
	}
	if ln.active {
		if !ln.delivered {
			return 1
		}
		if ln.q.empty() {
			return 0
		}
		if rest := ln.start + int64(ln.rep.Packets()) - cycle; rest > 0 {
			return uint8(rest)
		}
		ln.active = false
	}
	if !ln.q.pop(&ln.rep) {
		return 0
	}
	ln.active, ln.delivered, ln.start = true, false, cycle
	if to := n.fan.Subs().For(obs.KindReplyDepart, ln.rep.TC.Traced()); to != 0 {
		stage, mm := int8(s), int32(-1)
		if s == t.stages {
			// MNI output queue: p is the module's line.
			stage, mm = -1, int32(p%t.n)
		}
		n.fan.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindReplyDepart, PE: int32(ln.rep.PE),
			Stage: stage, MM: mm, Copy: int16(p / t.n),
			ID: ln.rep.ID, Op: ln.rep.Op, Addr: ln.rep.Addr,
		})
	}
	if toPE {
		return uint8(ln.rep.Packets()) // the PNI has its last packet at start+P
	}
	return 1
}
