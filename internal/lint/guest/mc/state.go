package mc

import (
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
// configures the real cache the same way), and shared memory is a sparse
// map under sequential consistency. One MC step executes one whole
// instruction atomically; the serializing MMs make every shared op
// (including the fetch-and-phi family) a single linearization point, so
// enumerating instruction interleavings covers combining too — a
// combined F&A pair is indistinguishable from the two ops serialized.

// cline is one cached shared-memory word.
type cline struct {
	val   int64
	dirty bool
}

// peState is one PE's part of a model state.
type peState struct {
	pc       int
	halted   bool
	isa.Regs                 // r0 stays zero: neither Exec nor set writes it
	cache    map[int64]cline // cached shared words
	local    map[int64]int64 // sparse private memory

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
	mem map[int64]int64
}

func newState(npes int) *state {
	s := &state{pes: make([]peState, npes), mem: map[int64]int64{}}
	for i := range s.pes {
		s.pes[i].cache = map[int64]cline{}
		s.pes[i].local = map[int64]int64{}
		s.pes[i].lastRead = -1
	}
	return s
}

func (s *state) clone() *state {
	c := &state{pes: make([]peState, len(s.pes)), mem: make(map[int64]int64, len(s.mem))}
	for a, v := range s.mem {
		c.mem[a] = v
	}
	for i := range s.pes {
		p := &s.pes[i]
		q := &c.pes[i]
		*q = *p
		q.cache = make(map[int64]cline, len(p.cache))
		for a, l := range p.cache {
			q.cache[a] = l
		}
		q.local = make(map[int64]int64, len(p.local))
		for a, v := range p.local {
			q.local[a] = v
		}
	}
	return c
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

// encode serializes the state canonically: map entries sorted by
// address, dead registers zeroed (per the liveness analysis), halted PEs
// collapsed to a single marker. Two states with the same encoding are
// genuinely indistinguishable to the program and the properties.
func (c *checker) encode(s *state) []byte {
	buf := c.encBuf[:0]
	var addrs []int64
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
			r := trailingZeros(m)
			buf = binary.AppendVarint(buf, p.I[r])
		}
		for m := liveF; m != 0; m &= m - 1 {
			r := trailingZeros(m)
			buf = binary.AppendUvarint(buf, math.Float64bits(p.F[r]))
		}
		addrs = sortedKeysC(p.cache, addrs)
		buf = binary.AppendUvarint(buf, uint64(len(addrs)))
		for _, a := range addrs {
			l := p.cache[a]
			buf = binary.AppendVarint(buf, a)
			buf = binary.AppendVarint(buf, l.val)
			if l.dirty {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		addrs = sortedKeysM(p.local, addrs)
		buf = binary.AppendUvarint(buf, uint64(len(addrs)))
		for _, a := range addrs {
			buf = binary.AppendVarint(buf, a)
			buf = binary.AppendVarint(buf, p.local[a])
		}
	}
	addrs = sortedKeysM(s.mem, addrs)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.AppendVarint(buf, a)
		buf = binary.AppendVarint(buf, s.mem[a])
	}
	c.encBuf = buf
	return buf
}

// decode rebuilds a state from its canonical encoding. Dead registers
// come back zeroed; by construction of the liveness sets the program
// cannot observe the difference.
func (c *checker) decode(enc []byte) *state {
	s := newState(c.opts.PEs)
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
		if rdB() {
			p.halted = true
			p.pc = -1
			p.lastRead = -1
			continue
		}
		p.pc = int(rdV())
		p.lastRead = rdV()
		p.lastDirty = rdB()
		liveI, liveF := c.liveAt(p.pc)
		for m := liveI; m != 0; m &= m - 1 {
			p.I[trailingZeros(m)] = rdV()
		}
		for m := liveF; m != 0; m &= m - 1 {
			p.F[trailingZeros(m)] = math.Float64frombits(rdU())
		}
		for n := rdU(); n > 0; n-- {
			a := rdV()
			v := rdV()
			p.cache[a] = cline{val: v, dirty: rdB()}
		}
		for n := rdU(); n > 0; n-- {
			a := rdV()
			p.local[a] = rdV()
		}
	}
	for n := rdU(); n > 0; n-- {
		a := rdV()
		s.mem[a] = rdV()
	}
	return s
}

// liveAt reports the live register masks at pc (full masks past the
// program end, where nothing executes).
func (c *checker) liveAt(pc int) (uint64, uint64) {
	if pc < 0 || pc >= len(c.live.in) {
		return ^uint64(0), ^uint64(0)
	}
	return c.live.in[pc], c.live.fin[pc]
}

func trailingZeros(m uint64) int { return bits.TrailingZeros64(m) }

func sortedKeysM(m map[int64]int64, scratch []int64) []int64 {
	scratch = scratch[:0]
	for a := range m {
		scratch = append(scratch, a)
	}
	slices.Sort(scratch)
	return scratch
}

func sortedKeysC(m map[int64]cline, scratch []int64) []int64 {
	scratch = scratch[:0]
	for a := range m {
		scratch = append(scratch, a)
	}
	slices.Sort(scratch)
	return scratch
}
