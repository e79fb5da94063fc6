package memory

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"ultracomputer/internal/msg"
)

// held reports the number of words tab holds: its table's keys, and key
// 0's word while that is not zero.
func held(tab *wordTable) int {
	if tab.zero != 0 {
		return tab.tab.Len() + 1
	}
	return tab.tab.Len()
}

// checkLoad holds tab to at most three quarters full. The table's own
// invariants are sim.FuzzTable's.
func checkLoad(t *testing.T, tab *wordTable) {
	t.Helper()
	if 4*tab.tab.Len() > 3*tab.tab.Slots() {
		t.Fatalf("%d words in %d slots: over three quarters full", tab.tab.Len(), tab.tab.Slots())
	}
}

// FuzzWordTable runs a script of reads and writes on a bank, through
// Bank.Read and Bank.Write, and on a module outside a bank, through Peek
// and Poke, and holds both against a Go map: every read returns the last
// value written to its (module, word) pair, or zero. The bank packs the
// pairs its hasher places (Interleave's a mod N and a / N, or MultHash's
// whole address), the module its words as they come, negative ones
// included. The table must hold exactly the pairs ever written a value
// other than zero — a read, or a write of zero to an absent word,
// inserts nothing, and nothing is deleted — and be at most three
// quarters full.
//
// A script is a sequence of operations. Each starts with one byte: the
// low two bits pick read, write, write of zero, or a run of writes; bit
// 2 says whether an 8-byte little-endian address follows (otherwise the
// address is the byte's top five bits, so that small scripts meet
// again). A write's value is the next byte as a signed number; a run is
// the next byte + 1 times 16 writes to a, a+s, a+2s, … for the stride s
// in the byte after it, which grows the table across doublings.
//
// Before operation reserveAt of the script the bank reserves room for
// reserve mod 8192 words (Bank.Reserve), which must leave what it holds
// unchanged and give the table that room at three quarters full: from
// then on, while the table holds no more words than the room, it may not
// grow. The corpus under testdata/fuzz/FuzzWordTable holds growth under
// each hasher, negative words, zero writes, the words whose key is 0, and
// a reservation before the first write and after some, each outgrown.
func FuzzWordTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, interleave bool, modules uint8, script []byte, reserveAt uint8, reserve uint16) {
		n := int(modules%64) + 1
		var h Hasher = MultHash{N: n}
		if interleave {
			h = Interleave{N: n}
		}
		b := NewBank(n, 1, h)
		mod := NewModule(0, 1)
		ref := map[msg.Addr]int64{}   // the bank's pairs
		own := map[int]int64{}        // the module's words
		stored := map[msg.Addr]bool{} // pairs ever written non-zero
		ownStored := map[int]bool{}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			c := script[0]
			script = script[1:]
			return c
		}
		write := func(a, v int64) {
			if interleave && a == math.MinInt64 {
				return // outside Interleave's domain: -a overflows
			}
			p := h.Map(a)
			b.Write(a, v)
			ref[p] = v
			mod.Poke(int(a), v)
			own[int(a)] = v
			if v != 0 {
				stored[p] = true
				ownStored[int(a)] = true
			}
		}
		room, slots := int(reserve%8192), -1 // slots: the table's at the reserve step
		for step := 0; len(script) > 0; step++ {
			if step == int(reserveAt) {
				b.Reserve(room)
				slots = b.words.tab.Slots()
				if 4*room > 3*slots {
					t.Fatalf("%T bank: Reserve(%d) left %d slots, under %d words at three quarters", h, room, slots, room)
				}
			}
			op := next()
			a := int64(op >> 3)
			if op&4 != 0 && len(script) >= 8 {
				a = int64(binary.LittleEndian.Uint64(script))
				script = script[8:]
			}
			switch op & 3 {
			case 0:
				if interleave && a == math.MinInt64 {
					continue
				}
				if got, want := b.Read(a), ref[h.Map(a)]; got != want {
					t.Fatalf("%T bank: Read(%d) = %d, want %d", h, a, got, want)
				}
				if got, want := mod.Peek(int(a)), own[int(a)]; got != want {
					t.Fatalf("module: Peek(%d) = %d, want %d", a, got, want)
				}
			case 1:
				write(a, int64(int8(next())))
			case 2:
				write(a, 0)
			case 3:
				count, stride := 16*(int(next())+1), int64(next())
				for i := range count {
					write(a+int64(i)*stride, int64(i)+1)
				}
			}
			if slots >= 0 && b.words.tab.Len() <= room && b.words.tab.Slots() != slots {
				t.Fatalf("%T bank: %d words in a room of %d, and %d slots became %d", h, b.words.tab.Len(), room, slots, b.words.tab.Slots())
			}
		}
		for p, want := range ref {
			if got := b.Modules[p.MM].Peek(p.Word); got != want {
				t.Fatalf("%T bank: module %d word %d = %d, want %d", h, p.MM, p.Word, got, want)
			}
		}
		for w, want := range own {
			if got := mod.Peek(w); got != want {
				t.Fatalf("module: word %d = %d, want %d", w, got, want)
			}
		}
		// Key 0's word (linear address 0) lives outside the slots and
		// counts while it is not zero.
		if ref[h.Map(0)] == 0 {
			delete(stored, h.Map(0))
		}
		if own[0] == 0 {
			delete(ownStored, 0)
		}
		if got := held(&b.words); got != len(stored) {
			t.Fatalf("%T bank: table holds %d words, %d were written non-zero", h, got, len(stored))
		}
		if got := held(mod.words); got != len(ownStored) {
			t.Fatalf("module: table holds %d words, %d were written non-zero", got, len(ownStored))
		}
		checkLoad(t, &b.words)
		checkLoad(t, mod.words)
	})
}

// TestBankWriteAllocBudget: a bank's store is one table, not one per
// module, so building a 64-module bank and writing 10 000 distinct words
// allocates O(log words) objects — the bank, its module slab and slice,
// and one array per doubling of the table — where a map per module took
// hundreds.
func TestBankWriteAllocBudget(t *testing.T) {
	const words = 10000
	for _, h := range []Hasher{MultHash{N: 64}, Interleave{N: 64}} {
		var b *Bank
		allocs := testing.AllocsPerRun(3, func() {
			b = NewBank(64, 2, h)
			for a := int64(1); a <= words; a++ {
				b.Write(a*7, a)
			}
		})
		budget := float64(bits.Len(words) + 4)
		t.Logf("%T: %.0f objects for a bank and %d writes (budget %.0f)", h, allocs, words, budget)
		if allocs > budget {
			t.Errorf("%T: %.0f objects for a bank and %d writes, budget %.0f", h, allocs, words, budget)
		}
		if got := b.Read(7 * words); got != words {
			t.Fatalf("%T: last word reads %d, want %d", h, got, words)
		}
	}
}
