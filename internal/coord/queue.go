package coord

// Queue is the appendix's completely parallel bounded FIFO queue: a
// public circular array with insert/delete pointers advanced by
// fetch-and-add, occupancy bounds #Qu/#Qi guarded by TIR/TDR, and a
// per-slot turn cell implementing the appendix's "wait turn at MyI" so
// that an inserter overwrites a slot only after the previous round's
// deleter has taken it. When the queue is neither empty nor full, any
// number of inserts and deletes proceed with no serial code at all.
//
// Shared-memory layout at base:
//
//	base+0          I    — total inserts started (insert ticket counter)
//	base+1          D    — total deletes started (delete ticket counter)
//	base+2          #Qu  — upper bound on occupancy
//	base+3          #Qi  — lower bound on occupancy
//	base+4+s        turn cell of slot s   (s in [0, size))
//	base+4+size+s   data cell of slot s
type Queue struct {
	mem  Mem
	base int64
	size int64
}

const (
	qI = iota
	qD
	qUpper
	qLower
	qHeader // number of header cells
)

// QueueCells reports the shared-memory footprint of a queue of the given
// capacity.
func QueueCells(size int) int64 { return qHeader + 2*int64(size) }

// NewQueue lays out and initializes a queue of the given capacity at
// base.
func NewQueue(m Mem, base int64, size int) *Queue {
	q := &Queue{mem: m, base: base, size: int64(size)}
	for i := int64(0); i < qHeader+2*q.size; i++ {
		m.Store(base+i, 0)
	}
	return q
}

// AttachQueue adopts an already-initialized queue at base (other PEs'
// view of a queue one PE created).
func AttachQueue(m Mem, base int64, size int) *Queue {
	return &Queue{mem: m, base: base, size: int64(size)}
}

func (q *Queue) turnAddr(slot int64) int64 { return q.base + qHeader + slot }
func (q *Queue) dataAddr(slot int64) int64 { return q.base + qHeader + q.size + slot }

// TryInsert appends v; it reports false on overflow (the queue was full).
func (q *Queue) TryInsert(v int64) bool {
	if !TIR(q.mem, q.base+qUpper, 1, q.size) {
		return false
	}
	ticket := q.mem.FetchAdd(q.base+qI, 1)
	slot, round := ticket%q.size, ticket/q.size
	// Wait turn at MyI: the slot is writable for round r once the
	// previous round's delete has bumped its turn cell to 2r.
	for q.mem.Load(q.turnAddr(slot)) != 2*round {
		q.mem.Pause()
	}
	q.mem.Store(q.dataAddr(slot), v)
	// The turn cell announces the datum: fence so a deleter that sees
	// the new turn value cannot read a stale data cell.
	q.mem.Fence()
	q.mem.Store(q.turnAddr(slot), 2*round+1)
	q.mem.FetchAdd(q.base+qLower, 1)
	return true
}

// TryDelete removes the oldest item; it reports false on underflow (the
// queue was empty).
func (q *Queue) TryDelete() (int64, bool) {
	if !TDR(q.mem, q.base+qLower, 1) {
		return 0, false
	}
	ticket := q.mem.FetchAdd(q.base+qD, 1)
	slot, round := ticket%q.size, ticket/q.size
	// Wait turn at MyD: readable once this round's insert finished.
	for q.mem.Load(q.turnAddr(slot)) != 2*round+1 {
		q.mem.Pause()
	}
	v := q.mem.Load(q.dataAddr(slot))
	q.mem.Store(q.turnAddr(slot), 2*(round+1))
	q.mem.FetchAdd(q.base+qUpper, -1)
	return v, true
}

// Insert appends v, spinning while the queue is full.
func (q *Queue) Insert(v int64) {
	for !q.TryInsert(v) {
		q.mem.Pause()
	}
}

// Delete removes the oldest item, spinning while the queue is empty.
func (q *Queue) Delete() int64 {
	for {
		if v, ok := q.TryDelete(); ok {
			return v
		}
		q.mem.Pause()
	}
}

// Len reports a lower bound on the current occupancy (#Qi).
func (q *Queue) Len() int64 { return q.mem.Load(q.base + qLower) }
