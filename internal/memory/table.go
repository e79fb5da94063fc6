package memory

import "math/bits"

// wordTable holds the written words of a bank's modules (or of one
// module built outside a bank) in one open-addressed array of (key,
// value) slots: Fibonacci hashing picks a key's home slot, linear
// probing walks on from there, and the table is kept at most three
// quarters full, so that a probe run stays short. Nothing is ever
// deleted: an absent word reads as zero, so a word is inserted only when
// it is first set to a value other than zero, and a slot once filled
// stays filled, which is why no slot is ever a tombstone and a lookup
// ends at the first empty slot.
//
// Key 0 marks an empty slot, so the word whose key is 0 lives in zero.
//
// A key is the (module, word) pair packed as key = word·wordMul +
// module·mmMul, which is the linear address the pair was placed from:
// Interleave puts address a at module a mod N, word a / N, so a bank
// that interleaves packs with (N, 1); MultHash keeps the whole address
// as the word, so a bank that hashes, like a module on its own, packs
// with (1, 0).
type wordTable struct {
	slots []wordSlot
	mask  int   // len(slots) - 1; len(slots) is a power of two
	shift uint8 // 64 - log2(len(slots)): home keeps the product's top bits
	n     int   // filled slots
	zero  int64 // the value of key 0

	wordMul, mmMul uint64
}

type wordSlot struct {
	key uint64
	val int64
}

// minSlots is the size of a table's first array.
const minSlots = 8

// key packs module mm's word w.
func (t *wordTable) key(mm, w int) uint64 {
	return uint64(w)*t.wordMul + uint64(mm)*t.mmMul
}

// home is k's first probe.
func (t *wordTable) home(k uint64) int {
	return int(k * fibMultiplier >> t.shift)
}

// get returns the value of key k; an absent key reads as zero.
func (t *wordTable) get(k uint64) int64 {
	if k == 0 {
		return t.zero
	}
	if t.n == 0 {
		return 0
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.key == k || sl.key == 0 {
			return sl.val // an empty slot holds 0
		}
	}
}

// set gives key k the value v. Setting an absent key to zero stores
// nothing.
func (t *wordTable) set(k uint64, v int64) {
	if k == 0 {
		t.zero = v
		return
	}
	if t.n > 0 {
		for i := t.home(k); ; i = (i + 1) & t.mask {
			sl := &t.slots[i]
			if sl.key == k {
				sl.val = v
				return
			}
			if sl.key == 0 {
				break
			}
		}
	}
	if v == 0 {
		return
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.insert(k, v)
	t.n++
}

// insert puts absent key k in the first empty slot of its probe run.
func (t *wordTable) insert(k uint64, v int64) {
	i := t.home(k)
	for t.slots[i].key != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = wordSlot{k, v}
}

// grow doubles the table (to minSlots the first time), rehashing what it
// holds.
func (t *wordTable) grow() {
	old := t.slots
	size := max(2*len(old), minSlots)
	//ultravet:ok hotalloc table doubling on a word's first write: O(log words written) arrays for the life of the bank
	t.slots = make([]wordSlot, size)
	t.mask = size - 1
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		if sl.key != 0 {
			t.insert(sl.key, sl.val)
		}
	}
}
