package mc

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"ultracomputer/internal/isa"
)

// The checker's abstraction of the machine: each PE is a register file
// plus a private write-back cache modeled per word (block size one,
// unbounded capacity, no spontaneous eviction — the replay harness
// configures the real cache the same way), and shared memory is a set of
// words sorted by address under sequential consistency. One MC step
// executes one whole instruction atomically; the serializing MMs make
// every shared op (including the fetch-and-phi family) a single
// linearization point, so enumerating instruction interleavings covers
// combining too — a combined F&A pair is indistinguishable from the two
// ops serialized.

// word is one entry of a words set.
type word[V any] struct {
	addr int64
	val  V
}

// words is a sparse memory: its entries sorted by strictly ascending
// address, so a copy is one append and the canonical encoding is a walk.
// A stored zero stays an entry: "wrote 0" and "never wrote" are
// different states.
type words[V any] []word[V]

// find returns the index of a's entry, or the index it would be inserted
// at, and whether it is present.
func (w words[V]) find(a int64) (int, bool) {
	return slices.BinarySearchFunc(w, a, cmpAddr[V])
}

// cmpAddr is find's comparison, named: a func literal on step's path is a
// hotalloc finding.
func cmpAddr[V any](e word[V], a int64) int { return cmp.Compare(e.addr, a) }

// value returns a's value, or the zero value when a was never stored.
func (w words[V]) value(a int64) V {
	if i, ok := w.find(a); ok {
		return w[i].val
	}
	var zero V
	return zero
}

// put stores v at a, inserting the entry in address order.
func (w *words[V]) put(a int64, v V) {
	if i, ok := w.find(a); ok {
		(*w)[i].val = v
	} else {
		*w = slices.Insert(*w, i, word[V]{a, v})
	}
}

// cline is one cached shared-memory word.
type cline struct {
	val   int64
	dirty bool
}

// peState is one PE's part of a model state.
type peState struct {
	pc       int
	halted   bool
	isa.Regs              // r0 stays zero: neither Exec nor set writes it
	cache    words[cline] // cached shared words
	local    words[int64] // private memory

	// Lost-update tracking: the address of the PE's most recent shared
	// read, and whether another PE has written it since. A plain store
	// back to a stale read target is the classic lost update (§2.3's
	// arguments all lean on F&A to avoid exactly this).
	lastRead  int64
	lastDirty bool
}

// reg reads an integer register.
func (p *peState) reg(r int) int64 { return p.I[r] }

// set writes an integer register, discarding writes to r0.
func (p *peState) set(r int, v int64) {
	if r != 0 {
		p.I[r] = v
	}
}

// state is one explored global state.
type state struct {
	pes []peState
	mem words[int64]
}

func newState(npes int) *state {
	s := &state{pes: make([]peState, npes)}
	for i := range s.pes {
		s.pes[i].lastRead = -1
	}
	return s
}

// copyTo makes d a deep copy of s, reusing d's storage.
func (s *state) copyTo(d *state) {
	d.pes = slices.Grow(d.pes[:0], len(s.pes))[:len(s.pes)]
	for i := range s.pes {
		q := &d.pes[i]
		cache, local := q.cache[:0], q.local[:0]
		*q = s.pes[i]
		q.cache = append(cache, q.cache...)
		q.local = append(local, q.local...)
	}
	d.mem = append(d.mem[:0], s.mem...)
}

// key is a truncated SHA-256 of the canonical encoding. 128 bits keeps
// the accidental-collision odds negligible at millions of states, unlike
// a 64-bit hash.
type key [16]byte

func hashKey(enc []byte) key {
	sum := sha256.Sum256(enc)
	var k key
	copy(k[:], sum[:16])
	return k
}

// encode serializes the state canonically: word sets in address order,
// dead registers zeroed (per the liveness analysis), halted PEs
// collapsed to a single marker. Two states with the same encoding are
// genuinely indistinguishable to the program and the properties.
func (c *checker) encode(s *state) []byte {
	buf := c.encBuf[:0]
	for i := range s.pes {
		p := &s.pes[i]
		if p.halted {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		buf = binary.AppendVarint(buf, int64(p.pc))
		buf = binary.AppendVarint(buf, p.lastRead)
		if p.lastRead >= 0 && p.lastDirty {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		liveI, liveF := c.liveAt(p.pc)
		for m := liveI; m != 0; m &= m - 1 {
			buf = binary.AppendVarint(buf, p.I[bits.TrailingZeros64(m)])
		}
		for m := liveF; m != 0; m &= m - 1 {
			buf = binary.AppendUvarint(buf, math.Float64bits(p.F[bits.TrailingZeros64(m)]))
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.cache)))
		for _, w := range p.cache {
			buf = binary.AppendVarint(buf, w.addr)
			buf = binary.AppendVarint(buf, w.val.val)
			if w.val.dirty {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.local)))
		for _, w := range p.local {
			buf = binary.AppendVarint(buf, w.addr)
			buf = binary.AppendVarint(buf, w.val)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.mem)))
	for _, w := range s.mem {
		buf = binary.AppendVarint(buf, w.addr)
		buf = binary.AppendVarint(buf, w.val)
	}
	c.encBuf = buf
	return buf
}

// decode rebuilds s from a canonical encoding, reusing s's storage.
// Dead registers come back zeroed; by construction of the liveness sets
// the program cannot observe the difference.
func (c *checker) decode(enc []byte, s *state) {
	s.pes = slices.Grow(s.pes[:0], c.opts.PEs)[:c.opts.PEs]
	pos := 0
	rdV := func() int64 {
		v, n := binary.Varint(enc[pos:])
		pos += n
		return v
	}
	rdU := func() uint64 {
		v, n := binary.Uvarint(enc[pos:])
		pos += n
		return v
	}
	rdB := func() bool {
		b := enc[pos]
		pos++
		return b != 0
	}
	for i := range s.pes {
		p := &s.pes[i]
		*p = peState{pc: -1, halted: true, lastRead: -1, cache: p.cache[:0], local: p.local[:0]}
		if rdB() {
			continue
		}
		p.halted = false
		p.pc = int(rdV())
		p.lastRead = rdV()
		p.lastDirty = rdB()
		liveI, liveF := c.liveAt(p.pc)
		for m := liveI; m != 0; m &= m - 1 {
			p.I[bits.TrailingZeros64(m)] = rdV()
		}
		for m := liveF; m != 0; m &= m - 1 {
			p.F[bits.TrailingZeros64(m)] = math.Float64frombits(rdU())
		}
		for n := rdU(); n > 0; n-- {
			p.cache = append(p.cache, word[cline]{rdV(), cline{rdV(), rdB()}})
		}
		for n := rdU(); n > 0; n-- {
			p.local = append(p.local, word[int64]{rdV(), rdV()})
		}
	}
	s.mem = s.mem[:0]
	for n := rdU(); n > 0; n-- {
		s.mem = append(s.mem, word[int64]{rdV(), rdV()})
	}
}

// liveAt reports the live register masks at pc (full masks past the
// program end, where nothing executes).
func (c *checker) liveAt(pc int) (uint64, uint64) {
	if pc < 0 || pc >= len(c.live.in) {
		return ^uint64(0), ^uint64(0)
	}
	return c.live.in[pc], c.live.fin[pc]
}
