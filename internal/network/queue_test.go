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
	q := reqQueue{cap: 100}
	for i := uint64(1); i <= 5; i++ {
		q.push(ptr(req(i, 0, msg.Load, int(i), 0, 0)))
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
	q := reqQueue{cap: 4}
	if !q.spaceFor(3) {
		t.Fatal("empty queue must accept 3 packets")
	}
	q.push(ptr(req(1, 0, msg.Store, 0, 0, 7))) // 3 packets
	if q.spaceFor(3) {
		t.Fatal("queue with 3/4 packets accepted 3 more")
	}
	if !q.spaceFor(1) {
		t.Fatal("queue with 3/4 packets refused 1 more")
	}
	q.push(ptr(req(2, 1, msg.Load, 1, 0, 0))) // 1 packet
	if q.occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", q.occupancy())
	}
}

func TestReqQueueFindCombinable(t *testing.T) {
	q := reqQueue{cap: 100}
	q.push(ptr(req(1, 0, msg.FetchAdd, 2, 5, 1)))
	q.push(ptr(req(2, 1, msg.Swap, 2, 6, 9)))
	// Same address, combinable ops.
	if i := q.findCombinable(ptr(req(3, 2, msg.FetchAdd, 2, 5, 4))); i != 0 {
		t.Fatalf("findCombinable = %d, want 0", i)
	}
	// Different word.
	if i := q.findCombinable(ptr(req(4, 2, msg.FetchAdd, 2, 7, 4))); i != -1 {
		t.Fatalf("findCombinable wrong word = %d, want -1", i)
	}
	// Same address, non-combinable pair (Swap with FetchAdd).
	if i := q.findCombinable(ptr(req(5, 2, msg.FetchAdd, 2, 6, 4))); i != -1 {
		t.Fatalf("findCombinable swap/fetchadd = %d, want -1", i)
	}
	// Already-combined entries are skipped.
	if !q.updateCombined(0, msg.FetchAdd, 5) {
		t.Fatal("updateCombined failed")
	}
	if i := q.findCombinable(ptr(req(6, 3, msg.FetchAdd, 2, 5, 4))); i != -1 {
		t.Fatalf("findCombinable on combined entry = %d, want -1", i)
	}
}

func TestReqQueueUpdateCombinedGrowth(t *testing.T) {
	q := reqQueue{cap: 3}
	q.push(ptr(req(1, 0, msg.Load, 0, 0, 0))) // 1 packet
	// Load -> FetchAdd grows to 3 packets; queue capacity 3 so it fits.
	if !q.updateCombined(0, msg.FetchAdd, 4) {
		t.Fatal("growth within capacity refused")
	}
	if q.occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", q.occupancy())
	}
	q2 := reqQueue{cap: 4}
	q2.push(ptr(req(1, 0, msg.Load, 0, 0, 0)))
	q2.push(ptr(req(2, 1, msg.Load, 1, 0, 0)))
	q2.push(ptr(req(3, 2, msg.Load, 2, 0, 0)))
	// Growing entry 0 to 3 packets would need 5 total; capacity is 4.
	if q2.updateCombined(0, msg.FetchAdd, 4) {
		t.Fatal("growth beyond capacity accepted")
	}
	if q2.occupancy() != 3 {
		t.Fatalf("occupancy changed on refused growth: %d", q2.occupancy())
	}
}

func TestWaitBuffer(t *testing.T) {
	w := waitBuffer{cap: 2}
	if !w.hasSpace() || w.len() != 0 {
		t.Fatal("fresh buffer state wrong")
	}
	w.add(waitRec{key: 10})
	w.add(waitRec{key: 20})
	if w.hasSpace() {
		t.Fatal("full buffer reports space")
	}
	if i := w.find(20); i != 1 {
		t.Fatalf("find(20) = %d, want 1", i)
	}
	if i := w.find(30); i != -1 {
		t.Fatalf("find(30) = %d for a key nobody added", i)
	}
	w.remove(w.find(10))
	if w.len() != 1 || !w.hasSpace() {
		t.Fatal("buffer state after remove wrong")
	}
	if w.find(10) != -1 || w.find(20) != 0 {
		t.Fatal("removed record still present, or its neighbour lost")
	}
}

// TestQueueSpillKeepsOrder drives three request queues and three reply
// queues, carved side by side from one slab of three slots per queue as
// Network.carve carves them, through seeded pushes, pops and combines at
// the paper's 15-packet capacity, and checks every queue against a
// plain-slice model after each operation. Queues run past their three
// slots both with a popped prefix (push compacts inside the slab first)
// and with a combined entry aboard, and no operation on one queue writes a
// slab slot of another.
func TestQueueSpillKeepsOrder(t *testing.T) {
	const queues, slots = 3, 3
	reqSlab, repSlab := make([]reqEntry, queues*slots), make([]msg.Reply, queues*slots)
	var (
		rq     [queues]reqQueue
		pq     [queues]repQueue
		rModel [queues][]reqEntry
		pModel [queues][]msg.Reply
	)
	for i := range rq {
		rq[i] = reqQueue{entries: reqSlab[slots*i : slots*i : slots*i+slots], cap: 15}
		pq[i] = repQueue{entries: repSlab[slots*i : slots*i : slots*i+slots], cap: 15}
	}
	inSlab := func(i int) bool { return unsafe.SliceData(rq[i].entries) == &reqSlab[slots*i] }
	rng := sim.NewRand(11)
	var id uint64
	compactedInSlab, spilledCombined := 0, 0
	for step := 0; step < 5000; step++ {
		i := rng.Intn(queues)
		q, p := &rq[i], &pq[i]
		// A queue that spilled and drained goes back to its slots, so the
		// sequence spills many times.
		if q.empty() && !inSlab(i) {
			*q = reqQueue{entries: reqSlab[slots*i : slots*i : slots*i+slots], cap: 15}
		}
		if p.empty() && unsafe.SliceData(p.entries) != &repSlab[slots*i] {
			*p = repQueue{entries: repSlab[slots*i : slots*i : slots*i+slots], cap: 15}
		}
		reqBefore, repBefore := slices.Clone(reqSlab), slices.Clone(repSlab)
		switch op := rng.Intn(5); {
		case op < 2: // push a request and a reply
			id++
			r := req(id, i, msg.Load, 0, rng.Intn(2), 0)
			if rng.Bernoulli(0.5) {
				r.Op, r.Operand = msg.FetchAdd, int64(id)
			}
			if q.spaceFor(r.Packets()) {
				if q.head > 0 && len(q.entries) == cap(q.entries) && inSlab(i) {
					compactedInSlab++
				}
				if q.head == 0 && len(q.entries) == cap(q.entries) && inSlab(i) && slices.ContainsFunc(rModel[i], func(e reqEntry) bool { return e.combined }) {
					spilledCombined++
				}
				q.push(&r)
				rModel[i] = append(rModel[i], reqEntry{req: r})
			}
			rep := r.Reply(int64(id) * 10)
			if p.spaceFor(rep.Packets()) {
				p.push(&rep)
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
		default: // combine into a random entry that has not combined yet
			if len(rModel[i]) == 0 {
				continue
			}
			j := rng.Intn(len(rModel[i]))
			e := &rModel[i][j]
			if e.combined {
				continue
			}
			if want := slices.IndexFunc(rModel[i], func(m reqEntry) bool {
				return !m.combined && m.req.Addr == e.req.Addr && msg.Combinable(m.req.Op, e.req.Op)
			}); q.findCombinable(&e.req) != q.head+want {
				t.Fatalf("step %d: queue %d findCombinable = %d, model says %d", step, i, q.findCombinable(&e.req)-q.head, want)
			}
			if !q.updateCombined(q.head+j, e.req.Op, e.req.Operand+1) {
				t.Fatalf("step %d: queue %d refused a combine that keeps its packets", step, i)
			}
			e.req.Operand++
			e.combined = true
		}
		for k := 0; k < queues*slots; k++ {
			if owner := k / slots; owner != i && (reqSlab[k] != reqBefore[k] || repSlab[k] != repBefore[k]) {
				t.Fatalf("step %d: an operation on queue %d wrote slab slot %d of queue %d", step, i, k, owner)
			}
		}
		for k := range rq {
			packets := 0
			for _, e := range rModel[k] {
				packets += e.req.Packets()
			}
			if !slices.Equal(rq[k].entries[rq[k].head:], rModel[k]) || rq[k].occupancy() != packets {
				t.Fatalf("step %d: request queue %d holds %v (%d packets), model %v (%d)",
					step, k, rq[k].entries[rq[k].head:], rq[k].occupancy(), rModel[k], packets)
			}
			if !slices.Equal(pq[k].entries[pq[k].head:], pModel[k]) {
				t.Fatalf("step %d: reply queue %d holds %v, model %v", step, k, pq[k].entries[pq[k].head:], pModel[k])
			}
		}
	}
	t.Logf("%d pushes compacted inside the slab, %d spilled it with a combined entry aboard", compactedInSlab, spilledCombined)
	if compactedInSlab == 0 || spilledCombined == 0 {
		t.Fatalf("the sequence never compacted inside the slab (%d) or spilled with a combined entry (%d)", compactedInSlab, spilledCombined)
	}
}

func TestRepQueue(t *testing.T) {
	q := repQueue{cap: 4}
	q.push(&msg.Reply{ID: 1, Op: msg.Load})  // 3 packets
	q.push(&msg.Reply{ID: 2, Op: msg.Store}) // 1 packet
	if q.spaceFor(1) {
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
