package network

import (
	"slices"
	"testing"
	"unsafe"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/sim"
)

func req(id uint64, pe int, op msg.Op, mm, word int, arg int64) msg.Request {
	return msg.Request{ID: id, PE: pe, Op: op, Addr: msg.Addr{MM: mm, Word: word}, Operand: arg}
}

// ptr lets a test hand the queues, which take messages by pointer, one
// built in place.
func ptr[T any](v T) *T { return &v }

func TestReqQueueFIFO(t *testing.T) {
	var rs source[msg.Request]
	var q reqQueue
	for i := uint64(1); i <= 5; i++ {
		q.push(ptr(req(i, 0, msg.Load, int(i), 0, 0)), 100, &rs)
	}
	if q.len() != 5 || q.occupancy() != 5 {
		t.Fatalf("len=%d occ=%d, want 5/5", q.len(), q.occupancy())
	}
	var r msg.Request
	for i := uint64(1); i <= 5; i++ {
		if ok := q.pop(&r); !ok || r.ID != i {
			t.Fatalf("pop %d: got %v ok=%v", i, r, ok)
		}
	}
	if q.pop(&r) || r.ID != 5 {
		t.Fatalf("pop on empty queue succeeded or wrote its argument: %v", r)
	}
}

func TestReqQueueCapacityInPackets(t *testing.T) {
	var rs source[msg.Request]
	var q reqQueue
	if !q.spaceFor(3, 4) {
		t.Fatal("empty queue must accept 3 packets")
	}
	q.push(ptr(req(1, 0, msg.Store, 0, 0, 7)), 4, &rs) // 3 packets
	if q.spaceFor(3, 4) {
		t.Fatal("queue with 3/4 packets accepted 3 more")
	}
	if !q.spaceFor(1, 4) {
		t.Fatal("queue with 3/4 packets refused 1 more")
	}
	q.push(ptr(req(2, 1, msg.Load, 1, 0, 0)), 4, &rs) // 1 packet
	if q.occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", q.occupancy())
	}
}

func TestReqQueueFindCombinable(t *testing.T) {
	var (
		rs source[msg.Request]
		ws source[waitRec]
		q  reqQueue
		w  waitBuffer
	)
	q.push(ptr(req(1, 0, msg.FetchAdd, 2, 5, 1)), 100, &rs)
	q.push(ptr(req(2, 1, msg.Swap, 2, 6, 9)), 100, &rs)
	// Same address, combinable ops.
	if i := q.findCombinable(ptr(req(3, 2, msg.FetchAdd, 2, 5, 4)), &w); i != 0 {
		t.Fatalf("findCombinable = %d, want 0", i)
	}
	// Different word.
	if i := q.findCombinable(ptr(req(4, 2, msg.FetchAdd, 2, 7, 4)), &w); i != -1 {
		t.Fatalf("findCombinable wrong word = %d, want -1", i)
	}
	// Same address, non-combinable pair (Swap with FetchAdd).
	if i := q.findCombinable(ptr(req(5, 2, msg.FetchAdd, 2, 6, 4)), &w); i != -1 {
		t.Fatalf("findCombinable swap/fetchadd = %d, want -1", i)
	}
	// Already-combined entries, keyed in the wait buffer, are skipped.
	if !q.updateCombined(0, msg.FetchAdd, 5, 100) {
		t.Fatal("updateCombined failed")
	}
	w.add(waitRec{a: side{id: 1}, b: side{id: 3}}, 8, &ws)
	if i := q.findCombinable(ptr(req(6, 3, msg.FetchAdd, 2, 5, 4)), &w); i != -1 {
		t.Fatalf("findCombinable on combined entry = %d, want -1", i)
	}
}

func TestReqQueueUpdateCombinedGrowth(t *testing.T) {
	var rs source[msg.Request]
	var q, q2 reqQueue
	q.push(ptr(req(1, 0, msg.Load, 0, 0, 0)), 3, &rs) // 1 packet
	// Load -> FetchAdd grows to 3 packets; queue capacity 3 so it fits.
	if !q.updateCombined(0, msg.FetchAdd, 4, 3) {
		t.Fatal("growth within capacity refused")
	}
	if q.occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", q.occupancy())
	}
	q2.push(ptr(req(1, 0, msg.Load, 0, 0, 0)), 4, &rs)
	q2.push(ptr(req(2, 1, msg.Load, 1, 0, 0)), 4, &rs)
	q2.push(ptr(req(3, 2, msg.Load, 2, 0, 0)), 4, &rs)
	// Growing entry 0 to 3 packets would need 5 total; capacity is 4.
	if q2.updateCombined(0, msg.FetchAdd, 4, 4) {
		t.Fatal("growth beyond capacity accepted")
	}
	if q2.occupancy() != 3 {
		t.Fatalf("occupancy changed on refused growth: %d", q2.occupancy())
	}
}

func TestWaitBuffer(t *testing.T) {
	var ws source[waitRec]
	var w waitBuffer
	if w.len() != 0 {
		t.Fatal("fresh buffer state wrong")
	}
	w.add(waitRec{a: side{id: 10}}, 2, &ws)
	w.add(waitRec{a: side{id: 20}}, 2, &ws)
	if w.len() != 2 {
		t.Fatal("full buffer state wrong")
	}
	if i := w.find(20); i != 1 {
		t.Fatalf("find(20) = %d, want 1", i)
	}
	if i := w.find(30); i != -1 {
		t.Fatalf("find(30) = %d for a key nobody added", i)
	}
	w.remove(w.find(10))
	if w.len() != 1 {
		t.Fatal("buffer state after remove wrong")
	}
	if w.find(10) != -1 || w.find(20) != 0 {
		t.Fatal("removed record still present, or its neighbour lost")
	}
}

// TestWaitRecordSizes pins what a combine stores and a decombine reads: a
// side keeps its trace context, a flag and a hop count, in the padding
// after pe and op, so a record is two 56-byte sides.
func TestWaitRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(side{}); got != 56 {
		t.Errorf("side is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(waitRec{}); got != 112 {
		t.Errorf("waitRec is %d bytes, want 112", got)
	}
}

// TestQueueSpillKeepsOrder drives three request queues, three reply
// queues and three wait buffers, carved side by side from one slab per
// entry type as Network.carve carves them, through seeded pushes, pops,
// combines, adds and removes at the paper's capacities (15 packets, 8
// records), and checks every room against a plain-slice model after each
// operation. Queues run past their three slots both with a popped prefix
// (push compacts inside the slab first) and with a combined entry aboard,
// wait buffers past their two slots, and records are removed from a
// buffer that has left its slab. A room that spills takes its next window
// from one chunk per entry type that the three rooms share, as a
// network's rooms do, and no operation on one room writes a slot of
// another room's window, whether that window is its slab slots or a
// spill's.
func TestQueueSpillKeepsOrder(t *testing.T) {
	const nRooms, slots, waitSlots = 3, 3, 2
	reqSlab, repSlab := make([]msg.Request, nRooms*slots), make([]msg.Reply, nRooms*slots)
	waitSlab := make([]waitRec, nRooms*waitSlots)
	// entry is a request of the model with its combining state, which a
	// queue keeps as a record keyed by the request in its wait buffer
	// (marks, whose records outlive the entry as a network's do).
	type entry struct {
		req      msg.Request
		combined bool
	}
	var (
		reqs   = source[msg.Request]{most: 32} // where every spill takes its window
		reps   = source[msg.Reply]{most: 32}
		waits  = source[waitRec]{most: 32}
		marked source[waitRec]
		rq     [nRooms]reqQueue
		pq     [nRooms]repQueue
		wb     [nRooms]waitBuffer
		marks  [nRooms]waitBuffer
		rModel [nRooms][]entry
		pModel [nRooms][]msg.Reply
		wModel [nRooms][]waitRec
	)
	for i := range rq {
		rq[i] = reqQueue{entries: reqSlab[slots*i : slots*i : slots*i+slots]}
		pq[i] = repQueue{entries: repSlab[slots*i : slots*i : slots*i+slots]}
		wb[i] = waitBuffer{recs: waitSlab[waitSlots*i : waitSlots*i : waitSlots*i+waitSlots]}
	}
	inSlab := func(i int) bool { return unsafe.SliceData(rq[i].entries) == &reqSlab[slots*i] }
	// windows snapshots every room's whole window (every slot up to its
	// capacity, live or not) but room i's.
	type snapshot struct {
		req  [nRooms][]msg.Request
		rep  [nRooms][]msg.Reply
		wait [nRooms][]waitRec
	}
	windows := func(i int) (s snapshot) {
		for k := range nRooms {
			if k != i {
				s.req[k] = slices.Clone(rq[k].entries[:cap(rq[k].entries)])
				s.rep[k] = slices.Clone(pq[k].entries[:cap(pq[k].entries)])
				s.wait[k] = slices.Clone(wb[k].recs[:cap(wb[k].recs)])
			}
		}
		return s
	}
	rng := sim.NewRand(11)
	var id uint64
	compactedInSlab, spilledCombined, waitSpills, spilledRemoves := 0, 0, 0, 0
	for step := 0; step < 5000; step++ {
		i := rng.Intn(nRooms)
		q, p, w := &rq[i], &pq[i], &wb[i]
		// A room that spilled and drained goes back to its slots, so the
		// sequence spills many times.
		if q.empty() && !inSlab(i) {
			*q = reqQueue{entries: reqSlab[slots*i : slots*i : slots*i+slots]}
		}
		if p.empty() && unsafe.SliceData(p.entries) != &repSlab[slots*i] {
			*p = repQueue{entries: repSlab[slots*i : slots*i : slots*i+slots]}
		}
		if w.len() == 0 && unsafe.SliceData(w.recs) != &waitSlab[waitSlots*i] {
			*w = waitBuffer{recs: waitSlab[waitSlots*i : waitSlots*i : waitSlots*i+waitSlots]}
		}
		before := windows(i)
		switch op := rng.Intn(7); {
		case op < 2: // push a request and a reply
			id++
			r := req(id, i, msg.Load, 0, rng.Intn(2), 0)
			if rng.Bernoulli(0.5) {
				r.Op, r.Operand = msg.FetchAdd, int64(id)
			}
			if q.spaceFor(r.Packets(), 15) {
				if q.head > 0 && len(q.entries) == cap(q.entries) && inSlab(i) {
					compactedInSlab++
				}
				if q.head == 0 && len(q.entries) == cap(q.entries) && inSlab(i) && slices.ContainsFunc(rModel[i], func(e entry) bool { return e.combined }) {
					spilledCombined++
				}
				q.push(&r, 15, &reqs)
				rModel[i] = append(rModel[i], entry{req: r})
			}
			rep := r.Reply(int64(id) * 10)
			if p.spaceFor(rep.Packets(), 15) {
				p.push(&rep, 15, &reps)
				pModel[i] = append(pModel[i], rep)
			}
		case op < 4: // pop both
			var r msg.Request
			if ok := q.pop(&r); ok != (len(rModel[i]) > 0) || ok && r != rModel[i][0].req {
				t.Fatalf("step %d: queue %d popped %v (ok %v), model head %v", step, i, r, ok, rModel[i])
			} else if ok {
				rModel[i] = rModel[i][1:]
			}
			var rep msg.Reply
			if ok := p.pop(&rep); ok != (len(pModel[i]) > 0) || ok && rep != pModel[i][0] {
				t.Fatalf("step %d: reply queue %d popped %v (ok %v), model %v", step, i, rep, ok, pModel[i])
			} else if ok {
				pModel[i] = pModel[i][1:]
			}
		case op == 4: // combine into a random entry that has not combined yet
			if len(rModel[i]) == 0 {
				continue
			}
			j := rng.Intn(len(rModel[i]))
			e := &rModel[i][j]
			if e.combined {
				continue
			}
			if want := slices.IndexFunc(rModel[i], func(m entry) bool {
				return !m.combined && m.req.Addr == e.req.Addr && msg.Combinable(m.req.Op, e.req.Op)
			}); q.findCombinable(&e.req, &marks[i]) != q.head+want {
				t.Fatalf("step %d: queue %d findCombinable = %d, model says %d", step, i, q.findCombinable(&e.req, &marks[i])-q.head, want)
			}
			if !q.updateCombined(q.head+j, e.req.Op, e.req.Operand+1, 15) {
				t.Fatalf("step %d: queue %d refused a combine that keeps its packets", step, i)
			}
			marks[i].add(waitRec{a: side{id: e.req.ID}}, 1<<30, &marked)
			e.req.Operand++
			e.combined = true
		case op == 5: // add a wait record
			if w.len() == 8 {
				continue
			}
			if len(w.recs) == cap(w.recs) {
				waitSpills++
			}
			id++
			rec := waitRec{a: side{id: id, pe: int32(i)}, b: side{id: id + 1<<40, pe: int32(i), issued: int64(id)}}
			w.add(rec, 8, &waits)
			wModel[i] = append(wModel[i], rec)
		default: // remove a random wait record, found by its key
			if len(wModel[i]) == 0 {
				continue
			}
			j := rng.Intn(len(wModel[i]))
			if got := w.find(wModel[i][j].a.id); got != j {
				t.Fatalf("step %d: wait buffer %d finds record %d at %d", step, i, j, got)
			}
			if unsafe.SliceData(w.recs) != &waitSlab[waitSlots*i] {
				spilledRemoves++
			}
			w.remove(j)
			wModel[i] = slices.Delete(wModel[i], j, j+1)
		}
		after := windows(i)
		for k := range nRooms {
			if !slices.Equal(before.req[k], after.req[k]) || !slices.Equal(before.rep[k], after.rep[k]) || !slices.Equal(before.wait[k], after.wait[k]) {
				t.Fatalf("step %d: an operation on room %d wrote the window of room %d", step, i, k)
			}
		}
		for k := range rq {
			packets := 0
			for _, e := range rModel[k] {
				packets += e.req.Packets()
			}
			if !slices.EqualFunc(rq[k].entries[rq[k].head:], rModel[k], func(r msg.Request, e entry) bool { return r == e.req }) || rq[k].occupancy() != packets {
				t.Fatalf("step %d: request queue %d holds %v (%d packets), model %v (%d)",
					step, k, rq[k].entries[rq[k].head:], rq[k].occupancy(), rModel[k], packets)
			}
			if !slices.Equal(pq[k].entries[pq[k].head:], pModel[k]) {
				t.Fatalf("step %d: reply queue %d holds %v, model %v", step, k, pq[k].entries[pq[k].head:], pModel[k])
			}
			if !slices.Equal(wb[k].recs, wModel[k]) {
				t.Fatalf("step %d: wait buffer %d holds %v, model %v", step, k, wb[k].recs, wModel[k])
			}
		}
	}
	t.Logf("%d pushes compacted inside the slab, %d spilled it with a combined entry aboard; %d adds spilled a wait buffer's window, %d removes were from a spilled one",
		compactedInSlab, spilledCombined, waitSpills, spilledRemoves)
	if compactedInSlab == 0 || spilledCombined == 0 || waitSpills == 0 || spilledRemoves == 0 {
		t.Fatalf("the sequence never compacted inside the slab (%d), spilled with a combined entry (%d), spilled a wait buffer (%d) or removed from a spilled one (%d)",
			compactedInSlab, spilledCombined, waitSpills, spilledRemoves)
	}
}

func TestRepQueue(t *testing.T) {
	var ps source[msg.Reply]
	var q repQueue
	q.push(&msg.Reply{ID: 1, Op: msg.Load}, 4, &ps)  // 3 packets
	q.push(&msg.Reply{ID: 2, Op: msg.Store}, 4, &ps) // 1 packet
	if q.spaceFor(1, 4) {
		t.Fatal("full reply queue reports space")
	}
	var r msg.Reply
	if !q.pop(&r) || r.ID != 1 {
		t.Fatalf("pop = %+v", r)
	}
	if q.occupancy() != 1 || q.len() != 1 {
		t.Fatalf("occupancy=%d len=%d", q.occupancy(), q.len())
	}
	if !q.pop(&r) {
		t.Fatal("second pop failed")
	}
	if q.pop(&r) {
		t.Fatal("pop on empty succeeded")
	}
}
