package network

import "ultracomputer/internal/msg"

// reqQueue is a switch output queue on the PE-to-MM path (a "ToMM queue",
// §3.3). Capacity is measured in packets, as in the paper's simulations.
// Entries may be searched associatively so that an arriving request can
// combine with a queued request for the same memory word; a queued entry
// that has already absorbed a partner is marked and never combines again
// (the switch supports only pairwise combination, §3.3).
//
// The hardware realization is the enhanced Guibas–Liang systolic queue of
// §3.3.1 (see systolic.go, which models the three-column mechanics); this
// structure implements the same abstract behavior — FIFO order, one exit
// per cycle, associative match of a new entry against queued entries —
// without simulating the column movements.
type reqQueue struct {
	// entries[head:] are the live requests; the popped prefix is
	// reclaimed on push so the backing array reaches a steady-state
	// capacity (the queue is packet-bounded) and the tick loop never
	// allocates.
	entries []reqEntry
	head    int
	packets int
	cap     int
}

// reqEntry is one queued request plus its combining state.
type reqEntry struct {
	req      msg.Request
	combined bool // already absorbed a partner; may not combine again
}

// spaceFor reports whether pk more packets fit.
func (q *reqQueue) spaceFor(pk int) bool { return q.packets+pk <= q.cap }

// empty reports whether the queue holds no requests.
func (q *reqQueue) empty() bool { return q.head == len(q.entries) }

// len reports the number of queued requests (not packets).
func (q *reqQueue) len() int { return len(q.entries) - q.head }

// occupancy reports the queue occupancy in packets.
func (q *reqQueue) occupancy() int { return q.packets }

// push appends a copy of *r. The caller must have checked spaceFor.
func (q *reqQueue) push(r *msg.Request) {
	if q.head > 0 && len(q.entries) == cap(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		q.entries = q.entries[:n]
		q.head = 0
	}
	q.entries = append(q.entries, reqEntry{})
	q.entries[len(q.entries)-1].req = *r
	q.packets += r.Packets()
}

// pop moves the head request into *into; it reports false, leaving *into
// alone, when the queue is empty.
func (q *reqQueue) pop(into *msg.Request) bool {
	if q.head == len(q.entries) {
		return false
	}
	*into = q.entries[q.head].req
	q.head++
	if q.head == len(q.entries) {
		q.head = 0
		q.entries = q.entries[:0]
	}
	q.packets -= into.Packets()
	return true
}

// findCombinable returns the index of a queued entry that can absorb r
// (same memory word, compatible operations, not yet combined), or -1.
func (q *reqQueue) findCombinable(r *msg.Request) int {
	for i := q.head; i < len(q.entries); i++ {
		e := &q.entries[i]
		if e.combined || e.req.Addr != r.Addr {
			continue
		}
		if msg.Combinable(e.req.Op, r.Op) {
			return i
		}
	}
	return -1
}

// setTC stamps entry i's trace context — mid-flight adoption when an
// untraced queued request absorbs (or is absorbed by) a traced partner,
// so the combined request's onward hops are recorded.
func (q *reqQueue) setTC(i int, tc msg.TraceCtx) { q.entries[i].req.TC = tc }

// updateCombined replaces entry i's operation and operand with the
// combined request and marks it, adjusting packet occupancy. It reports
// false (leaving the entry untouched) if the combined message would not
// fit in the remaining capacity.
func (q *reqQueue) updateCombined(i int, op msg.Op, operand int64) bool {
	e := &q.entries[i]
	newReq := e.req
	newReq.Op = op
	newReq.Operand = operand
	delta := newReq.Packets() - e.req.Packets()
	if delta > 0 && q.packets+delta > q.cap {
		return false
	}
	q.packets += delta
	e.req = newReq
	e.combined = true
	return true
}

// repQueue is a switch output queue on the MM-to-PE path (a "ToPE queue",
// §3.3): a plain packet-bounded FIFO of replies.
type repQueue struct {
	// Same popped-prefix reclamation as reqQueue (see above).
	entries []msg.Reply
	head    int
	packets int
	cap     int
}

func (q *repQueue) spaceFor(pk int) bool { return q.packets+pk <= q.cap }
func (q *repQueue) empty() bool          { return q.head == len(q.entries) }
func (q *repQueue) len() int             { return len(q.entries) - q.head }
func (q *repQueue) occupancy() int       { return q.packets }

func (q *repQueue) push(r *msg.Reply) {
	if q.head > 0 && len(q.entries) == cap(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		q.entries = q.entries[:n]
		q.head = 0
	}
	q.entries = append(q.entries, *r)
	q.packets += r.Packets()
}

func (q *repQueue) pop(into *msg.Reply) bool {
	if q.head == len(q.entries) {
		return false
	}
	*into = q.entries[q.head]
	q.head++
	if q.head == len(q.entries) {
		q.head = 0
		q.entries = q.entries[:0]
	}
	q.packets -= into.Packets()
	return true
}

// side identifies one of the two original requests recorded in a wait
// buffer entry, with the plan for synthesizing its reply and what the
// synthesized reply must carry back: the request's own injection cycle
// and trace context.
type side struct {
	id     uint64
	pe     int
	op     msg.Op
	issued int64
	plan   msg.ReplyPlan
	tc     msg.TraceCtx
}

// waitRec is one wait buffer entry: when the reply to the forwarded
// combined request (identified by key) returns, the two original replies
// are synthesized (§3.3, Figure 3).
type waitRec struct {
	key  uint64 // ID of the forwarded (queued) request
	addr msg.Addr
	a, b side
}

// waitBuffer holds the combined-request records of one ToMM queue,
// searched associatively by the returning reply's identity.
type waitBuffer struct {
	recs []waitRec
	cap  int
}

// hasSpace reports whether another record fits.
func (w *waitBuffer) hasSpace() bool { return len(w.recs) < w.cap }

// len reports the number of outstanding records.
func (w *waitBuffer) len() int { return len(w.recs) }

// add inserts a record. The caller must have checked hasSpace.
func (w *waitBuffer) add(r waitRec) { w.recs = append(w.recs, r) }

// find returns the index of the record keyed by id, or -1. At most one
// record can match: request IDs are unique among in-flight messages and
// each queued request combines at most once per switch.
func (w *waitBuffer) find(id uint64) int {
	for i := range w.recs {
		if w.recs[i].key == id {
			return i
		}
	}
	return -1
}

// remove deletes record i, keeping the others in order.
func (w *waitBuffer) remove(i int) { w.recs = append(w.recs[:i], w.recs[i+1:]...) }
