package network

import (
	"testing"

	"ultracomputer/internal/msg"
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
