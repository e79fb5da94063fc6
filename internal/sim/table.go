package sim

import "math/bits"

// Table maps uint64 keys to values of type V in one open-addressed array
// of (key, value) slots. Fibonacci hashing picks a key's home slot from
// the product's top bits, which mix every bit of the key; linear probing
// walks on from there; and Del moves each later member of the probe run
// back into the hole when the hole lies on the member's own probe path,
// so that no slot is ever a tombstone and a lookup ends at the first
// empty slot.
//
// Key 0 marks an empty slot: Get(0) returns the zero V, and Update(0, v),
// Put(0, v) and Del(0) store nothing. A caller whose keys include 0 keeps
// that key's value itself.
//
// The table grows only in Reserve, and Put needs an empty slot, so the
// caller reserves room before the table fills, at whatever load it
// chooses. The zero Table holds nothing and has no slots: reserve before
// the first Put.
type Table[V any] struct {
	slots []tableSlot[V]
	mask  int   // len(slots) - 1; len(slots) is a power of two
	shift uint8 // 64 - log2(len(slots)): home keeps the product's top bits
	n     int   // filled slots
}

type tableSlot[V any] struct {
	key uint64
	val V
}

// Len reports the keys the table holds.
func (t *Table[V]) Len() int { return t.n }

// Slots reports the table's size, which bounds the keys it can hold.
func (t *Table[V]) Slots() int { return len(t.slots) }

// home is k's first probe.
func (t *Table[V]) home(k uint64) int {
	return int(k * 0x9e3779b97f4a7c15 >> t.shift)
}

// Get returns k's value, or the zero V if the table does not hold k.
func (t *Table[V]) Get(k uint64) V {
	if t.n == 0 {
		var zero V
		return zero
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.key == k || sl.key == 0 {
			return sl.val // an empty slot holds the zero V
		}
	}
}

// Update gives k the value v if the table holds k, and reports whether
// it did.
func (t *Table[V]) Update(k uint64, v V) bool {
	if t.n == 0 || k == 0 {
		return false
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.key == k {
			sl.val = v
			return true
		}
		if sl.key == 0 {
			return false
		}
	}
}

// Put gives k the value v, adding k if the table does not hold it. The
// caller has reserved the room.
func (t *Table[V]) Put(k uint64, v V) {
	if k == 0 {
		return
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.key == k {
			sl.val = v
			return
		}
		if sl.key == 0 {
			sl.key, sl.val = k, v
			t.n++
			return
		}
	}
}

// Del removes k. Each later member of its probe run moves back into the
// hole when the hole lies on the member's own probe path, from its home
// to where it sits, and the last hole left is emptied.
func (t *Table[V]) Del(k uint64) {
	if t.n == 0 || k == 0 {
		return
	}
	i := t.home(k)
	for t.slots[i].key != k {
		if t.slots[i].key == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.slots[j].key != 0; j = (j + 1) & t.mask {
		if (j-t.home(t.slots[j].key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
}

// Reserve grows the table, if it must, to a power of two of at least
// room slots (8 at the least), rehashing what it holds.
func (t *Table[V]) Reserve(room int) {
	size := max(len(t.slots), 8)
	for size < room {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]tableSlot[V], size)
	t.mask = size - 1
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, sl := range old {
		t.Put(sl.key, sl.val)
	}
}
