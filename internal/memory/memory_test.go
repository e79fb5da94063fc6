package memory

import (
	"testing"
	"testing/quick"

	"ultracomputer/internal/msg"
)

// scriptPort is a Port backed by slices, for driving a Module directly.
type scriptPort struct {
	in        []msg.Request
	out       []msg.Reply
	refuse    int // refuse this many Reply calls before accepting
	refusedAt int
}

func (p *scriptPort) Dequeue() (msg.Request, bool) {
	if len(p.in) == 0 {
		return msg.Request{}, false
	}
	r := p.in[0]
	p.in = p.in[1:]
	return r, true
}

func (p *scriptPort) Reply(r msg.Reply) bool {
	if p.refusedAt < p.refuse {
		p.refusedAt++
		return false
	}
	p.out = append(p.out, r)
	return true
}

func TestModuleServesWithLatency(t *testing.T) {
	m := NewModule(0, 4)
	p := &scriptPort{in: []msg.Request{
		{ID: 1, PE: 0, Op: msg.FetchAdd, Addr: msg.Addr{MM: 0, Word: 9}, Operand: 5},
		{ID: 2, PE: 1, Op: msg.Load, Addr: msg.Addr{MM: 0, Word: 9}},
	}}
	cycle := int64(0)
	for len(p.out) < 2 && cycle < 100 {
		m.Step(cycle, p)
		cycle++
	}
	if len(p.out) != 2 {
		t.Fatalf("%d replies after %d cycles", len(p.out), cycle)
	}
	if p.out[0].Value != 0 || p.out[1].Value != 5 {
		t.Fatalf("reply values = %d, %d; want 0, 5", p.out[0].Value, p.out[1].Value)
	}
	if m.Peek(9) != 5 {
		t.Fatalf("word 9 = %d, want 5", m.Peek(9))
	}
	// Two ops at latency 4: roughly 8 cycles, certainly not 2.
	if cycle < 8 {
		t.Fatalf("completed in %d cycles; latency not modeled", cycle)
	}
	if m.Served.Value() != 2 {
		t.Fatalf("Served = %d, want 2", m.Served.Value())
	}
}

// TestReadDoesNotWriteTheStore: an operation that leaves a word's value
// unchanged — a load, a fetch-and-add of zero, a fetch-and-max below the
// value — must not insert the word (an absent word reads as zero, so the
// entry would only grow the table), while a store of zero over a non-zero
// word must still land.
func TestReadDoesNotWriteTheStore(t *testing.T) {
	m := NewModule(0, 1)
	p := &scriptPort{in: []msg.Request{
		{ID: 1, Op: msg.Load, Addr: msg.Addr{Word: 1}},
		{ID: 2, Op: msg.FetchAdd, Addr: msg.Addr{Word: 2}, Operand: 0},
		{ID: 3, Op: msg.FetchMax, Addr: msg.Addr{Word: 3}, Operand: -5},
	}}
	step := func(replies int) {
		t.Helper()
		for cycle := int64(0); len(p.out) < replies; cycle++ {
			if cycle == 100 {
				t.Fatalf("%d replies after %d cycles, want %d", len(p.out), cycle, replies)
			}
			m.Step(cycle, p)
		}
	}
	step(3)
	for _, rep := range p.out {
		if rep.Value != 0 {
			t.Errorf("%v on a fresh module replied %d, want 0", rep.Op, rep.Value)
		}
	}
	if n := held(m.words); n != 0 {
		t.Fatalf("three reads left %d words in the store", n)
	}
	m.Poke(4, 7)
	p.in = []msg.Request{{ID: 4, Op: msg.Store, Addr: msg.Addr{Word: 4}, Operand: 0}}
	step(4)
	if got := m.Peek(4); got != 0 {
		t.Fatalf("word 4 = %d after a store of 0 over 7", got)
	}
}

func TestModuleRetriesBlockedReply(t *testing.T) {
	m := NewModule(0, 1)
	p := &scriptPort{
		in:     []msg.Request{{ID: 1, Op: msg.Load, Addr: msg.Addr{MM: 0, Word: 1}}},
		refuse: 3,
	}
	for cycle := int64(0); cycle < 20 && len(p.out) == 0; cycle++ {
		m.Step(cycle, p)
	}
	if len(p.out) != 1 {
		t.Fatal("reply lost after MNI backpressure")
	}
	if !m.Idle() {
		t.Fatal("module not idle after completing")
	}
}

func TestModuleWrongModulePanics(t *testing.T) {
	m := NewModule(3, 1)
	p := &scriptPort{in: []msg.Request{{ID: 1, Op: msg.Load, Addr: msg.Addr{MM: 0}}}}
	defer func() {
		if recover() == nil {
			t.Fatal("misrouted request did not panic")
		}
	}()
	for cycle := int64(0); cycle < 5; cycle++ {
		m.Step(cycle, p)
	}
}

func TestModuleAccept(t *testing.T) {
	m := NewModule(0, 2)
	p := &scriptPort{}
	m.Accept(msg.Request{ID: 1, Op: msg.FetchAdd, Addr: msg.Addr{MM: 0, Word: 3}, Operand: 4}, 0)
	if m.Idle() {
		t.Fatal("module idle right after Accept")
	}
	for cycle := int64(1); cycle < 10 && len(p.out) == 0; cycle++ {
		m.Step(cycle, p)
	}
	if len(p.out) != 1 || p.out[0].Value != 0 || m.Peek(3) != 4 {
		t.Fatalf("Accept service wrong: out=%v cell=%d", p.out, m.Peek(3))
	}
	// Accept on a busy module is a programming error.
	m.Accept(msg.Request{ID: 2, Op: msg.Load, Addr: msg.Addr{MM: 0}}, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("double Accept did not panic")
		}
	}()
	m.Accept(msg.Request{ID: 3, Op: msg.Load, Addr: msg.Addr{MM: 0}}, 20)
}

func TestBankTotals(t *testing.T) {
	b := NewBank(4, 1, Interleave{N: 4})
	if b.TotalServed() != 0 {
		t.Fatal("fresh bank served ops")
	}
	b.Modules[1].Served.Add(3)
	b.Modules[2].Served.Add(4)
	if b.TotalServed() != 7 {
		t.Fatalf("TotalServed = %d, want 7", b.TotalServed())
	}
	if b.Modules[0].ID() != 0 || b.Modules[3].ID() != 3 {
		t.Fatal("module IDs wrong")
	}
}

func TestBankReadWrite(t *testing.T) {
	b := NewBank(8, 1, MultHash{N: 8})
	for a := int64(0); a < 100; a++ {
		b.Write(a, a*a)
	}
	for a := int64(0); a < 100; a++ {
		if got := b.Read(a); got != a*a {
			t.Fatalf("Read(%d) = %d, want %d", a, got, a*a)
		}
	}
	if !b.Idle() {
		t.Fatal("fresh bank not idle")
	}
}

func TestInterleaveMapping(t *testing.T) {
	h := Interleave{N: 4}
	if h.Modules() != 4 {
		t.Fatal("Modules() wrong")
	}
	if a := h.Map(13); a.MM != 1 || a.Word != 3 {
		t.Fatalf("Map(13) = %+v, want MM 1 word 3", a)
	}
	// A stride of N concentrates on one module — the pathology hashing
	// exists to fix.
	mm := h.Map(0).MM
	for i := int64(0); i < 64; i += 4 {
		if h.Map(i).MM != mm {
			t.Fatal("stride-N references should hit a single module under interleave")
		}
	}
}

// TestMultHashUniformityAndInjectivity checks that hashing spreads both
// sequential and strided address streams near-uniformly, and that Map is
// injective (no two addresses share a module and word).
func TestMultHashUniformityAndInjectivity(t *testing.T) {
	const n = 16
	h := MultHash{N: n}
	for _, stride := range []int64{1, n, 64, 4096} {
		counts := make([]int, n)
		seen := make(map[msg.Addr]int64)
		const samples = 4096
		for i := int64(0); i < samples; i++ {
			a := i * stride
			m := h.Map(a)
			counts[m.MM]++
			if prev, dup := seen[m]; dup {
				t.Fatalf("addresses %d and %d both map to %v", prev, a, m)
			}
			seen[m] = a
		}
		want := samples / n
		for mm, c := range counts {
			if c < want/2 || c > want*2 {
				t.Errorf("stride %d: module %d got %d references, want ~%d", stride, mm, c, want)
			}
		}
	}
}

func TestHashersRoundTripProperty(t *testing.T) {
	for _, h := range []Hasher{Interleave{N: 8}, MultHash{N: 8}} {
		f := func(a int64) bool {
			if a < 0 {
				a = -a
			}
			a %= 1 << 40
			m := h.Map(a)
			return m.MM >= 0 && m.MM < h.Modules()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%T: %v", h, err)
		}
	}
}
