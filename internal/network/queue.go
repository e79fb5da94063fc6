package network

import "ultracomputer/internal/msg"

// reqQueue is a switch output queue on the PE-to-MM path (a "ToMM queue",
// §3.3). Capacity is measured in packets, as in the paper's simulations,
// and the network passes it in: cfg.PNIQueueCapacity for a PNI queue,
// cfg.QueueCapacity for any other. Entries may be searched associatively
// so that an arriving request can combine with a queued request for the
// same memory word; a queued request that has already absorbed a partner
// never combines again (the switch supports only pairwise combination,
// §3.3), which its wait buffer records: it holds a record keyed by the
// request's ID.
//
// The hardware realization is the enhanced Guibas–Liang systolic queue of
// §3.3.1 (see systolic.go, which models the three-column mechanics); this
// structure implements the same abstract behavior — FIFO order, one exit
// per cycle, associative match of a new entry against queued entries —
// without simulating the column movements.
type reqQueue struct {
	// entries[head:] are the live requests, in a window (see source); the
	// popped prefix is reclaimed on push so the window reaches a
	// steady-state size (the queue is packet-bounded) and the tick loop
	// never allocates.
	entries []msg.Request
	head    int
	packets int
}

// spaceFor reports whether pk more packets fit in capacity.
func (q *reqQueue) spaceFor(pk, capacity int) bool { return q.packets+pk <= capacity }

// empty reports whether the queue holds no requests.
func (q *reqQueue) empty() bool { return q.head == len(q.entries) }

// len reports the number of queued requests (not packets).
func (q *reqQueue) len() int { return len(q.entries) - q.head }

// occupancy reports the queue occupancy in packets.
func (q *reqQueue) occupancy() int { return q.packets }

// push appends a copy of *r, moving the queue to a larger window from src
// when its own is full. The caller must have checked spaceFor.
func (q *reqQueue) push(r *msg.Request, capacity int, src *source[msg.Request]) {
	if len(q.entries) == cap(q.entries) {
		if q.head > 0 {
			n := copy(q.entries, q.entries[q.head:])
			q.entries = q.entries[:n]
			q.head = 0
		} else {
			q.entries = src.grow(q.entries, 1, capacity) // a message is at least one packet
		}
	}
	q.entries = append(q.entries, *r)
	q.packets += r.Packets()
}

// pop moves the head request into *into; it reports false, leaving *into
// alone, when the queue is empty.
func (q *reqQueue) pop(into *msg.Request) bool {
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

// findCombinable returns the index of a queued entry that can absorb r
// (same memory word, compatible operations, not yet combined: no record
// of w, the queue's wait buffer, is keyed by it), or -1.
func (q *reqQueue) findCombinable(r *msg.Request, w *waitBuffer) int {
	for i := q.head; i < len(q.entries); i++ {
		e := &q.entries[i]
		if e.Addr == r.Addr && msg.Combinable(e.Op, r.Op) && w.find(e.ID) < 0 {
			return i
		}
	}
	return -1
}

// updateCombined replaces entry i's operation and operand with the
// combined request, adjusting packet occupancy. It reports false (leaving
// the entry untouched) if the combined message would not fit in capacity.
func (q *reqQueue) updateCombined(i int, op msg.Op, operand int64, capacity int) bool {
	e := &q.entries[i]
	newReq := *e
	newReq.Op = op
	newReq.Operand = operand
	delta := newReq.Packets() - e.Packets()
	if delta > 0 && q.packets+delta > capacity {
		return false
	}
	q.packets += delta
	*e = newReq
	return true
}

// repQueue is a switch output queue on the MM-to-PE path (a "ToPE queue",
// §3.3): a plain packet-bounded FIFO of replies, of capacity
// cfg.QueueCapacity.
type repQueue struct {
	// Same popped-prefix reclamation as reqQueue (see above).
	entries []msg.Reply
	head    int
	packets int
}

func (q *repQueue) spaceFor(pk, capacity int) bool { return q.packets+pk <= capacity }
func (q *repQueue) empty() bool                    { return q.head == len(q.entries) }
func (q *repQueue) len() int                       { return len(q.entries) - q.head }
func (q *repQueue) occupancy() int                 { return q.packets }

func (q *repQueue) push(r *msg.Reply, capacity int, src *source[msg.Reply]) {
	if len(q.entries) == cap(q.entries) {
		if q.head > 0 {
			n := copy(q.entries, q.entries[q.head:])
			q.entries = q.entries[:n]
			q.head = 0
		} else {
			q.entries = src.grow(q.entries, 1, capacity)
		}
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
// and trace context. Its address is the returning reply's.
type side struct {
	id     uint64
	issued int64
	plan   msg.ReplyPlan
	pe     int32 // < MaxPorts
	op     msg.Op
	tc     msg.TraceCtx
}

// waitRec is one wait buffer entry, keyed by a.id, the ID of the forwarded
// (queued) request: when the reply to it returns, the two original replies
// are synthesized (§3.3, Figure 3).
type waitRec struct{ a, b side }

// waitBuffer holds the combined-request records of one ToMM queue,
// searched associatively by the returning reply's identity. Its capacity
// is cfg.WaitBufferCapacity.
type waitBuffer struct{ recs []waitRec }

// len reports the number of outstanding records.
func (w *waitBuffer) len() int { return len(w.recs) }

// add inserts a record, moving the buffer to a larger window from src when
// its own is full. The caller must have checked len against capacity.
func (w *waitBuffer) add(r waitRec, capacity int, src *source[waitRec]) {
	if len(w.recs) == cap(w.recs) {
		w.recs = src.grow(w.recs, 1, capacity)
	}
	w.recs = append(w.recs, r)
}

// find returns the index of the record keyed by id, or -1. At most one
// record can match: request IDs are unique among in-flight messages and
// each queued request combines at most once per switch.
func (w *waitBuffer) find(id uint64) int {
	for i := range w.recs {
		if w.recs[i].a.id == id {
			return i
		}
	}
	return -1
}

// remove deletes record i, keeping the others in order.
func (w *waitBuffer) remove(i int) { w.recs = append(w.recs[:i], w.recs[i+1:]...) }

// rooms is a network's one source per entry type, beside the per-stage
// combine counters (K >= 2 and MaxPorts bound Stages by 20) and Collect's
// per-PE scratch, valid until that PE's next Collect. carve makes it.
type rooms struct {
	reqs     source[msg.Request]
	reps     source[msg.Reply]
	waits    source[waitRec]
	combines [20]int64
	collect  [][]msg.Reply
}

// source hands out windows of one entry type: full slice expressions over
// a shared chunk, so a room outgrowing one moves (grow) and never reaches
// a neighbour's slots. The first chunk is carve's; each later one is twice
// the one before, from 32 slots up to most. Nothing is reused: not a window
// its room left, nor a chunk's rest too short for the next window.
type source[T any] struct {
	free []T // the newest chunk's slots in no window yet
	next int // the size of the last chunk take made
	most int // the largest chunk take makes
}

// take returns an empty window of n slots.
func (r *source[T]) take(n int) []T {
	if len(r.free) < n {
		r.next = min(max(2*r.next, 32), r.most)
		r.free = alloc[T](max(n, r.next))
	}
	w := r.free[:0:n]
	r.free = r.free[n:]
	return w
}

// grow returns s with room for more entries: s itself if it has it, else
// s's entries in a new window of twice its size, as append would grow it,
// but no larger than limit, the most the room can ever hold.
func (r *source[T]) grow(s []T, more, limit int) []T {
	if len(s)+more <= cap(s) {
		return s
	}
	w := r.take(max(len(s)+more, min(2*cap(s), limit)))[:len(s)]
	copy(w, s)
	return w
}

// alloc makes every piece of a network's room storage: its rooms and their
// chunks, none before the first inject.
func alloc[T any](n int) []T {
	return make([]T, n) //ultravet:ok hotalloc a network's rooms and chunks: a few at its first inject, then one per doubling or per capped chunk of windows
}
