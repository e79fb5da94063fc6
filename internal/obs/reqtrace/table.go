package reqtrace

import "math/bits"

// spanTable maps the IDs of the spans under assembly to their spans. It
// replaces a Go map on the path every traced event takes: open addressing
// with linear probing in one array of (id, span) slots, kept at most half
// full so that a probe run stays short, and backward-shift deletion, so
// that no slot is ever a tombstone and a lookup ends at the first empty
// slot.
//
// Key 0 marks an empty slot. No request ID is 0 — a PE numbers its
// requests from 1, and the zero TraceCtx is the untraced one — so get(0)
// finds nothing and put(0, s) stores nothing.
//
// The table grows only in reserve. The tracer reserves room for twice
// the spans it has made (Tracer.fresh); spans under assembly never
// outnumber spans made, so put never needs room it does not have.
type spanTable struct {
	slots []spanSlot
	mask  int   // len(slots) - 1; len(slots) is a power of two
	shift uint8 // 64 - log2(len(slots)): home keeps the product's top bits
}

type spanSlot struct {
	id uint64
	s  *Span
}

// home is id's first probe: Fibonacci hashing, whose top bits mix both
// halves of a pe<<32|seq ID.
func (t *spanTable) home(id uint64) int {
	return int(id * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the span of id, or nil.
func (t *spanTable) get(id uint64) *Span {
	for i := t.home(id); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.id == id {
			return sl.s // an empty slot matches id 0 and holds nil
		}
		if sl.id == 0 {
			return nil
		}
	}
}

// put maps id to s, replacing any span id had. The caller has reserved
// the room.
func (t *spanTable) put(id uint64, s *Span) {
	if id == 0 {
		return
	}
	for i := t.home(id); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.id == id {
			sl.s = s
			return
		}
		if sl.id == 0 {
			sl.id, sl.s = id, s
			return
		}
	}
}

// del removes id. Each later member of its probe run moves back into the
// hole when the hole lies on the member's own probe path, from its home
// to where it sits, and the last hole left is emptied.
func (t *spanTable) del(id uint64) {
	if id == 0 {
		return
	}
	i := t.home(id)
	for t.slots[i].id != id {
		if t.slots[i].id == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.slots[j].id != 0; j = (j + 1) & t.mask {
		if (j-t.home(t.slots[j].id))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = spanSlot{}
}

// reserve grows the table, if it must, to a power of two of at least
// room slots (8 at the least), rehashing what it holds.
func (t *spanTable) reserve(room int) {
	size := max(len(t.slots), 8)
	for size < room {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]spanSlot, size)
	t.mask = size - 1
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		t.put(sl.id, sl.s)
	}
}
