package network

import (
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// reqServer transmits one request across a link. A message of P packets
// occupies the link for P cycles; its header is deliverable to the next
// stage one cycle after service starts (cut-through), so an unloaded
// network adds one cycle of delay per stage plus the pipe-setting time
// (§4.1's "+ m − 1" term). Delivery into a memory module waits for the
// full message (the MNI assembles requests, §3.4).
type reqServer struct {
	active    bool
	delivered bool
	start     int64
	req       msg.Request
}

// repServer is the reply-path equivalent of reqServer.
type repServer struct {
	active    bool
	delivered bool
	start     int64
	rep       msg.Reply
}

// copyNet is one copy of the Omega network: D stages of N/k switches,
// each switch holding k ToMM queues with wait buffers (forward component)
// and k ToPE queues (reverse component), plus the PNI and MNI link
// queues.
type copyNet struct {
	topo topology
	cfg  Config

	// Forward (PE → MM) path.
	pniQ   []*reqQueue   // [pe] PNI output queue
	pniSrv []reqServer   // [pe] PNI-to-stage-0 link
	fq     [][]*reqQueue // [stage][switch*k+port] ToMM queues
	fsrv   [][]reqServer // [stage][switch*k+port]
	wb     [][]*waitBuffer
	mmIn   []*reqQueue // [mm] fully assembled requests awaiting the MM

	// Reverse (MM → PE) path.
	mmOut  []*repQueue   // [mm] MNI output queue
	mmSrv  []repServer   // [mm] MNI-to-last-stage link
	rq     [][]*repQueue // [stage][switch*k+port] ToPE queues
	rsrv   [][]repServer
	peRecv [][]msg.Reply // [pe] fully assembled replies for the PE

	// revDefer holds, per switch, the second reply synthesized by a
	// decombination when its ToPE queue lacked space that cycle (a
	// one-entry register in the hardware). While occupied, the switch
	// refuses further incoming replies so the register cannot be
	// overrun; it drains as the ToPE queues empty toward the PEs.
	revDefer [][]deferredReply

	// act is the network-wide activity flag set; this copy's flags start
	// at base (per-port arrays) and dbase (per-switch-column array).
	act         *activity
	base, dbase int

	copyIdx int
}

// activity holds the per-link activity flags that make a network cycle
// cost host time in proportion to the messages in flight rather than to
// the size of the machine. Every link — a queue plus the server that
// drains it — has one byte:
//
//	flag clear  ⇒  the link's server is inactive and its queue is empty
//	            ⇒  pumping the link is a no-op, so the Stepper skips it
//
// A flag is set by whoever pushes into the link's queue and cleared only
// by the pump that owns the link, after a pop attempt that leaves the
// server inactive. Both happen in phases where the writing unit owns the
// link (see DESIGN.md, "Activity flags"), so the flags are plain bytes:
// neighbouring flags belong to different units, which is why a flag is a
// byte and not a bit — a byte is its own memory location, a bit would
// need an atomic read-modify-write.
//
// Each array covers all copies laid end to end, copy ci at offset ci·N
// (ci·N/k for deferred), and is indexed by *position*: the slot of the
// switch port the link feeds, so that the k links a (copy, switch) unit
// pumps in one phase are the k consecutive bytes [u·k, u·k+k) of unit u
// and the Stepper can rule out eight idle links with one 64-bit load.
type activity struct {
	fwd [][]uint8 // [s+1]: links out of stage s; [0]: PNI links (see fwdLine)
	rev [][]uint8 // [s]: links out of stage s toward the PEs; [stages]: MNI links (see revLine)
	mm  []uint8   // [mm]: mmIn[mm] may hold an arrival for the module
	pe  []uint8   // [pe]: peRecv[pe] holds replies to collect
	// deferred counts, per switch column, the valid revDefer registers
	// over all stages (at most one per stage, and Stages <= 20).
	deferred []uint8
}

// newActivity carves every flag array of a network out of one
// allocation.
func newActivity(copies int, t topology) *activity {
	cols := t.stages + 1
	buf := make([]uint8, copies*(t.n*(2*cols+2)+t.group))
	carve := func(n int) []uint8 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	a := &activity{fwd: make([][]uint8, cols), rev: make([][]uint8, cols)}
	for i := 0; i < cols; i++ {
		a.fwd[i] = carve(copies * t.n)
		a.rev[i] = carve(copies * t.n)
	}
	a.mm = carve(copies * t.n)
	a.pe = carve(copies * t.n)
	a.deferred = carve(copies * t.group)
	return a
}

// fwdLine maps position p of the forward flag array of stage s (s == -1:
// the PNI links) to the line it stands for. Links between stages are
// owned by the destination switch, which the shuffle wires to lines
// j·N/k+sw, so they are stored shuffled; the last stage's links are owned
// by their own switch and stored in line order. Ascending positions
// within a unit are ascending lines either way.
func (t topology) fwdLine(s, p int) int {
	if s < t.stages-1 {
		return t.unshuffle(p)
	}
	return p
}

// revLine is fwdLine for the reverse flag array of stage s (s == stages:
// the MNI links): links between stages are stored unshuffled; the MNI
// links and stage 0's links into the PEs are stored in line order.
func (t topology) revLine(s, p int) int {
	if s > 0 && s < t.stages {
		return t.shuffle(p)
	}
	return p
}

// markFwd flags the forward link out of stage s, line l (s == -1: PE l's
// PNI link) after a push into its queue; the position is fwdLine's
// inverse.
func (c *copyNet) markFwd(s, l int) {
	if s < c.topo.stages-1 {
		l = c.topo.shuffle(l)
	}
	c.act.fwd[s+1][c.base+l] = 1
}

// markRev flags the reverse link out of stage s, line l (s == stages:
// MM l's MNI link) after a push into its queue.
func (c *copyNet) markRev(s, l int) {
	if s > 0 && s < c.topo.stages {
		l = c.topo.unshuffle(l)
	}
	c.act.rev[s][c.base+l] = 1
}

func newCopyNet(cfg Config, act *activity, idx int) *copyNet {
	t := newTopology(cfg.K, cfg.Stages)
	c := &copyNet{topo: t, cfg: cfg, act: act, base: idx * t.n, dbase: idx * t.group, copyIdx: idx}
	n := t.n
	c.pniQ = make([]*reqQueue, n)
	c.pniSrv = make([]reqServer, n)
	c.mmIn = make([]*reqQueue, n)
	c.mmOut = make([]*repQueue, n)
	c.mmSrv = make([]repServer, n)
	c.peRecv = make([][]msg.Reply, n)
	for i := 0; i < n; i++ {
		c.pniQ[i] = newReqQueue(cfg.PNIQueueCapacity)
		c.mmIn[i] = newReqQueue(cfg.QueueCapacity)
		c.mmOut[i] = newRepQueue(cfg.QueueCapacity)
	}
	c.fq = make([][]*reqQueue, t.stages)
	c.fsrv = make([][]reqServer, t.stages)
	c.wb = make([][]*waitBuffer, t.stages)
	c.rq = make([][]*repQueue, t.stages)
	c.rsrv = make([][]repServer, t.stages)
	c.revDefer = make([][]deferredReply, t.stages)
	for s := 0; s < t.stages; s++ {
		c.revDefer[s] = make([]deferredReply, t.group)
		c.fq[s] = make([]*reqQueue, n)
		c.fsrv[s] = make([]reqServer, n)
		c.wb[s] = make([]*waitBuffer, n)
		c.rq[s] = make([]*repQueue, n)
		c.rsrv[s] = make([]repServer, n)
		for l := 0; l < n; l++ {
			c.fq[s][l] = newReqQueue(cfg.QueueCapacity)
			c.wb[s][l] = newWaitBuffer(cfg.WaitBufferCapacity)
			c.rq[s][l] = newRepQueue(cfg.QueueCapacity)
		}
	}
	return c
}

// line converts (switch, port) to a line number within a stage.
func (c *copyNet) line(sw, port int) int { return sw*c.topo.k + port }

// sink directs one execution unit's observability output. The Stepper's
// serial engine points it at the shared Stats and the network's fan-out;
// a parallel engine points it at scratch counters and the unit's own
// event buffer, merged in deterministic unit order after each phase (see
// Stepper). subs is the network's set of attached consumers: a site
// builds an event only when subs.For names somebody for it.
type sink struct {
	stats *Stats
	subs  *obs.Subs
	out   obs.Probe
	// rt, when non-nil, buffers round-trip latencies for replay in PE
	// order (parallel engines); nil observes them into stats directly.
	rt *[]int64
}

// enqueueForward routes a request into the ToMM queue of stage s selected
// by the destination digit, attempting combination first (§3.3). It
// reports false when the request cannot be accepted this cycle.
func (c *copyNet) enqueueForward(s, sw int, r msg.Request, cycle int64, sk *sink) bool {
	port := c.topo.digit(r.Addr.MM, s)
	idx := c.line(sw, port)
	q := c.fq[s][idx]
	if c.cfg.Combining {
		if i := q.findCombinable(r); i >= 0 {
			w := c.wb[s][idx]
			if w.hasSpace() {
				old := q.entries[i].req
				fop, farg, aPlan, bPlan, ok := msg.Combine(old.Op, old.Operand, r.Op, r.Operand)
				if ok && q.updateCombined(i, fop, farg) {
					aTC, bTC := old.TC, r.TC
					if to := sk.subs.For(obs.KindCombine, aTC.Traced() || bTC.Traced()); to != 0 {
						if to&obs.SubTrace != 0 {
							// Record genealogy completely: a combine
							// touching any traced request adopts the
							// untraced partner mid-flight, so the tree
							// a sampled request joins is whole. The
							// queued survivor's context is stamped onto
							// its entry so the combined request's
							// onward hops are recorded too.
							if !aTC.Traced() {
								aTC = msg.TraceCtx{ID: old.ID, Hops: r.TC.Hops}
							}
							if !bTC.Traced() {
								bTC = msg.TraceCtx{ID: r.ID, Hops: old.TC.Hops}
							}
							q.setTC(i, aTC)
						}
						sk.out.Emit(obs.Event{
							To: to, Cycle: cycle, Kind: obs.KindCombine, PE: r.PE,
							Stage: s, MM: -1, Copy: c.copyIdx,
							ID: r.ID, ID2: old.ID, Op: r.Op, Addr: r.Addr,
							Aux: int32(old.PE),
						})
					}
					w.add(waitRec{
						key:  old.ID,
						addr: old.Addr,
						a:    side{id: old.ID, pe: old.PE, op: old.Op, plan: aPlan, tc: aTC},
						b:    side{id: r.ID, pe: r.PE, op: r.Op, plan: bPlan, tc: bTC},
					})
					sk.stats.Combines.Inc()
					*sk.stats.atStage(s)++
					return true
				}
			}
		}
	}
	if !q.spaceFor(r.Packets()) {
		return false
	}
	if r.TC.ID != 0 {
		r.TC.Hops++
	}
	q.push(r)
	c.markFwd(s, idx)
	if to := sk.subs.For(obs.KindStageArrive, r.TC.Traced()); to != 0 {
		sk.out.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindStageArrive, PE: r.PE,
			Stage: s, MM: -1, Copy: c.copyIdx,
			ID: r.ID, Op: r.Op, Addr: r.Addr, Aux: int32(q.occupancy()),
		})
	}
	return true
}

// deferredReply is a one-entry holding register for the second reply of a
// decombination whose ToPE queue was momentarily full.
type deferredReply struct {
	rep   msg.Reply
	port  int
	valid bool
}

// acceptReply receives a reply arriving at stage s on MM-side port inPort
// of switch sw. If the reply's identity matches a wait-buffer record, the
// record is consumed and both original replies are synthesized and routed
// (decombination, §3.3); otherwise the reply is routed alone. It reports
// false when the required ToPE queue space is unavailable this cycle.
func (c *copyNet) acceptReply(s, sw, inPort int, rep msg.Reply, cycle int64, sk *sink) bool {
	if c.revDefer[s][sw].valid {
		// The switch still holds an undelivered second reply; block
		// incoming replies until it drains.
		return false
	}
	w := c.wb[s][c.line(sw, inPort)]
	if rec, found := w.peek(rep.ID); found {
		ra := synthReply(rec.a, rec.addr, rep.Value)
		rb := synthReply(rec.b, rec.addr, rep.Value)
		pa := c.topo.digit(ra.PE, s)
		pb := c.topo.digit(rb.PE, s)
		qa := c.rq[s][c.line(sw, pa)]
		qb := c.rq[s][c.line(sw, pb)]
		if !qa.spaceFor(ra.Packets()) {
			return false
		}
		w.take(rep.ID)
		qa.push(ra)
		c.markRev(s, c.line(sw, pa))
		if to := sk.subs.For(obs.KindDecombine, ra.TC.Traced() || rb.TC.Traced()); to != 0 {
			sk.out.Emit(obs.Event{
				To: to, Cycle: cycle, Kind: obs.KindDecombine, PE: -1,
				Stage: s, MM: -1, Copy: c.copyIdx,
				ID: rep.ID, ID2: rb.ID, Addr: rec.addr, Value: rep.Value,
			})
		}
		c.emitReplyHop(s, ra, cycle, sk)
		// If qa == qb, qb's occupancy already includes ra.
		if qb.spaceFor(rb.Packets()) {
			qb.push(rb)
			c.markRev(s, c.line(sw, pb))
			c.emitReplyHop(s, rb, cycle, sk)
		} else {
			c.revDefer[s][sw] = deferredReply{rep: rb, port: pb, valid: true}
			c.act.deferred[c.dbase+sw]++
		}
		sk.stats.Decombines.Inc()
		return true
	}
	idx := c.line(sw, c.topo.digit(rep.PE, s))
	q := c.rq[s][idx]
	if !q.spaceFor(rep.Packets()) {
		return false
	}
	q.push(rep)
	c.markRev(s, idx)
	c.emitReplyHop(s, rep, cycle, sk)
	return true
}

// emitReplyHop records a reply entering a stage's ToPE queue.
func (c *copyNet) emitReplyHop(s int, rep msg.Reply, cycle int64, sk *sink) {
	if to := sk.subs.For(obs.KindReplyHop, rep.TC.Traced()); to != 0 {
		sk.out.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindReplyHop, PE: rep.PE,
			Stage: s, MM: -1, Copy: c.copyIdx,
			ID: rep.ID, Op: rep.Op, Addr: rep.Addr, Value: rep.Value,
		})
	}
}

// flushDeferredSwitch retries delivery of the held second replies of
// switch column sw, at every stage, into their ToPE queues. The Stepper
// calls it only for columns whose act.deferred count is non-zero.
func (c *copyNet) flushDeferredSwitch(sw int, cycle int64, sk *sink) {
	for s := 0; s < c.topo.stages; s++ {
		c.flushDeferredAt(s, sw, cycle, sk)
	}
}

func (c *copyNet) flushDeferredAt(s, sw int, cycle int64, sk *sink) {
	d := &c.revDefer[s][sw]
	if !d.valid {
		return
	}
	idx := c.line(sw, d.port)
	q := c.rq[s][idx]
	if q.spaceFor(d.rep.Packets()) {
		q.push(d.rep)
		c.markRev(s, idx)
		d.valid = false
		c.act.deferred[c.dbase+sw]--
		c.emitReplyHop(s, d.rep, cycle, sk)
	}
}

// synthReply builds the reply owed to one side of a combined pair from
// the combined reply's value (Figure 3), carrying the side's own trace
// context back toward its PE.
func synthReply(sd side, addr msg.Addr, y int64) msg.Reply {
	return msg.Reply{ID: sd.id, PE: sd.pe, Op: sd.op, Addr: addr, Value: sd.plan.Synthesize(y), TC: sd.tc}
}

// pumpRequest advances one forward link server and reports whether it is
// still active (false means the link is idle: nothing in service and the
// queue empty). s == -1 denotes a PNI link (l is the PE number);
// otherwise l = switch*k + port at stage s.
func (c *copyNet) pumpRequest(cycle int64, s, l int, sk *sink) bool {
	t := c.topo
	var srv *reqServer
	var q *reqQueue
	if s < 0 {
		srv, q = &c.pniSrv[l], c.pniQ[l]
	} else {
		srv, q = &c.fsrv[s][l], c.fq[s][l]
	}
	if srv.active && !srv.delivered {
		pk := int64(srv.req.Packets())
		lastStage := s == t.stages-1
		ready := cycle >= srv.start+1
		if lastStage {
			// The MNI assembles the full message before the MM
			// sees it.
			ready = cycle >= srv.start+pk
		}
		if ready {
			var ok bool
			if lastStage {
				mm := l // output line of the last stage is the MM number
				if c.mmIn[mm].spaceFor(srv.req.Packets()) {
					c.mmIn[mm].push(srv.req)
					c.act.mm[c.base+mm] = 1
					ok = true
					if to := sk.subs.For(obs.KindMMArrive, srv.req.TC.Traced()); to != 0 {
						sk.out.Emit(obs.Event{
							To: to, Cycle: cycle, Kind: obs.KindMMArrive, PE: srv.req.PE,
							Stage: -1, MM: mm, Copy: c.copyIdx,
							ID: srv.req.ID, Op: srv.req.Op, Addr: srv.req.Addr,
						})
					}
				}
			} else {
				// The perfect shuffle wires output line l (or PE
				// l when s == -1) to the next stage.
				nextSw := t.shuffle(l) / t.k
				ok = c.enqueueForward(s+1, nextSw, srv.req, cycle, sk)
			}
			if ok {
				srv.delivered = true
			}
		}
	}
	if srv.active && srv.delivered && cycle >= srv.start+int64(srv.req.Packets()) {
		srv.active = false
	}
	if !srv.active {
		if r, ok := q.pop(); ok {
			srv.active = true
			srv.delivered = false
			srv.start = cycle
			srv.req = r
			if to := sk.subs.For(obs.KindStageDepart, r.TC.Traced()); to != 0 {
				// Queue departure into the link server: together with
				// the matching StageArrive this brackets the hop's
				// queueing delay (Stage -1 is the PNI queue).
				sk.out.Emit(obs.Event{
					To: to, Cycle: cycle, Kind: obs.KindStageDepart, PE: r.PE,
					Stage: s, MM: -1, Copy: c.copyIdx,
					ID: r.ID, Op: r.Op, Addr: r.Addr,
				})
			}
		}
	}
	return srv.active
}

// pumpReply advances one reverse link server and reports whether it is
// still active, as pumpRequest does. s == stages denotes an MNI link (l
// is the MM number); otherwise l = switch*k + PE-side port at stage s.
func (c *copyNet) pumpReply(cycle int64, s, l int, sk *sink) bool {
	t := c.topo
	var srv *repServer
	var q *repQueue
	if s == t.stages {
		srv, q = &c.mmSrv[l], c.mmOut[l]
	} else {
		srv, q = &c.rsrv[s][l], c.rq[s][l]
	}
	if srv.active && !srv.delivered {
		pk := int64(srv.rep.Packets())
		toPE := s == 0
		ready := cycle >= srv.start+1
		if toPE {
			// The PNI assembles the full reply before the PE sees it.
			ready = cycle >= srv.start+pk
		}
		if ready {
			var ok bool
			switch {
			case toPE:
				pe := t.unshuffle(l)
				c.peRecv[pe] = append(c.peRecv[pe], srv.rep)
				c.act.pe[c.base+pe] = 1
				ok = true
			case s == t.stages:
				// MNI into the last stage: MM m is wired to
				// switch m/k, MM-side port m%k.
				ok = c.acceptReply(t.stages-1, l/t.k, l%t.k, srv.rep, cycle, sk)
			default:
				prev := t.unshuffle(l)
				ok = c.acceptReply(s-1, prev/t.k, prev%t.k, srv.rep, cycle, sk)
			}
			if ok {
				srv.delivered = true
			}
		}
	}
	if srv.active && srv.delivered && cycle >= srv.start+int64(srv.rep.Packets()) {
		srv.active = false
	}
	if !srv.active {
		if r, ok := q.pop(); ok {
			srv.active = true
			srv.delivered = false
			srv.start = cycle
			srv.rep = r
			if to := sk.subs.For(obs.KindReplyDepart, r.TC.Traced()); to != 0 {
				stage, mm := s, -1
				if s == t.stages {
					// MNI output queue: l is the MM number.
					stage, mm = -1, l
				}
				sk.out.Emit(obs.Event{
					To: to, Cycle: cycle, Kind: obs.KindReplyDepart, PE: r.PE,
					Stage: stage, MM: mm, Copy: c.copyIdx,
					ID: r.ID, Op: r.Op, Addr: r.Addr,
				})
			}
		}
	}
	return srv.active
}

// inFlightLocal counts messages resident in this copy's queues and
// servers (excluding the peRecv buffers, which the caller drains).
func (c *copyNet) inFlightLocal() int {
	t := c.topo
	n := 0
	for pe := 0; pe < t.n; pe++ {
		n += c.pniQ[pe].len()
		if c.pniSrv[pe].active {
			n++
		}
		n += c.mmIn[pe].len()
		n += c.mmOut[pe].len()
		if c.mmSrv[pe].active {
			n++
		}
	}
	for s := 0; s < t.stages; s++ {
		for l := 0; l < t.n; l++ {
			n += c.fq[s][l].len()
			if c.fsrv[s][l].active {
				n++
			}
			n += c.rq[s][l].len()
			if c.rsrv[s][l].active {
				n++
			}
			// Each wait record stands for one absorbed request
			// whose reply is still owed (its partner is counted
			// on the path).
			n += c.wb[s][l].len()
		}
		for sw := range c.revDefer[s] {
			if c.revDefer[s][sw].valid {
				n++
			}
		}
	}
	return n
}
