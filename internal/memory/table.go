package memory

import "ultracomputer/internal/sim"

// wordTable holds the written words of a bank's modules (or of one
// module built outside a bank) in one sim.Table, kept at most three
// quarters full so that a probe run stays short. Nothing is ever
// deleted: an absent word reads as zero, so a word is inserted only when
// it is first set to a value other than zero.
//
// sim.Table keeps key 0 for its empty slots, so the word whose key is 0
// lives in zero.
//
// A key is the (module, word) pair packed as key = word·wordMul +
// module·mmMul, which is the linear address the pair was placed from:
// Interleave puts address a at module a mod N, word a / N, so a bank
// that interleaves packs with (N, 1); MultHash keeps the whole address
// as the word, so a bank that hashes, like a module on its own, packs
// with (1, 0).
type wordTable struct {
	tab  sim.Table[int64]
	zero int64 // the value of key 0

	wordMul, mmMul uint64
}

// key packs module mm's word w.
func (t *wordTable) key(mm, w int) uint64 {
	return uint64(w)*t.wordMul + uint64(mm)*t.mmMul
}

// get returns the value of key k; an absent key reads as zero.
func (t *wordTable) get(k uint64) int64 {
	if k == 0 {
		return t.zero
	}
	return t.tab.Get(k)
}

// set gives key k the value v. Setting an absent key to zero stores
// nothing.
func (t *wordTable) set(k uint64, v int64) {
	if k == 0 {
		t.zero = v
		return
	}
	if t.tab.Update(k, v) || v == 0 {
		return
	}
	if 4*(t.tab.Len()+1) > 3*t.tab.Slots() {
		//ultravet:ok hotalloc table doubling on a word's first write: O(log words written) arrays for the life of the bank
		t.tab.Reserve(2 * t.tab.Slots())
	}
	t.tab.Put(k, v)
}
