package pe

import (
	"slices"
	"testing"

	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
)

// fakeNet collects injected requests and lets tests answer them.
type fakeNet struct {
	reqs   []msg.Request
	refuse bool
}

func (f *fakeNet) inject(_ int, r msg.Request) bool {
	if f.refuse {
		return false
	}
	f.reqs = append(f.reqs, r)
	return true
}

func newTestPE(core Core, f *fakeNet) *PE {
	return New(3, core, memory.Interleave{N: 4}, f.inject, 4)
}

// stubCore drives Env directly from the test.
type stubCore struct {
	onTick    func(env *Env) TickResult
	completed map[int]int64
}

func (s *stubCore) Tick(env *Env) TickResult { return s.onTick(env) }
func (s *stubCore) Complete(tag int, v int64) {
	if s.completed == nil {
		s.completed = map[int]int64{}
	}
	s.completed[tag] = v
}

func TestPNIOneOutstandingPerLocation(t *testing.T) {
	f := &fakeNet{}
	var issued []bool
	core := &stubCore{onTick: func(env *Env) TickResult {
		issued = append(issued, env.Issue(msg.Load, 100, 0, 0))
		issued = append(issued, env.Issue(msg.Load, 100, 0, 1)) // same address: must refuse
		issued = append(issued, env.Issue(msg.Load, 101, 0, 2)) // different: fine
		return TickResult{Executed: true}
	}}
	p := newTestPE(core, f)
	p.Tick(0, 4, 0)
	if !issued[0] || issued[1] || !issued[2] {
		t.Fatalf("issued = %v, want [true false true]", issued)
	}
	if p.PNI().Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", p.PNI().Outstanding())
	}
	// Complete the first; the address frees up.
	rep := msg.Reply{ID: f.reqs[0].ID, PE: 3, Op: msg.Load, Addr: f.reqs[0].Addr, Value: 7}
	p.Deliver(rep, 5)
	if got := core.completed[0]; got != 7 {
		t.Fatalf("completion value = %d, want 7", got)
	}
	if !p.PNI().canIssue(100) {
		t.Fatal("address still blocked after completion")
	}
}

func TestPNIMaxOutstanding(t *testing.T) {
	f := &fakeNet{}
	core := &stubCore{onTick: func(env *Env) TickResult {
		for i := 0; i < 6; i++ {
			env.Issue(msg.Load, int64(i), 0, i)
		}
		return TickResult{Executed: true}
	}}
	p := newTestPE(core, f) // maxOutstanding = 4
	p.Tick(0, 4, 0)
	if p.PNI().Outstanding() != 4 {
		t.Fatalf("outstanding = %d, want 4 (bounded)", p.PNI().Outstanding())
	}
}

func TestPNIRefusedInjectLeavesNoState(t *testing.T) {
	f := &fakeNet{refuse: true}
	core := &stubCore{onTick: func(env *Env) TickResult {
		if env.Issue(msg.Load, 100, 0, 0) {
			t.Error("issue succeeded against a refusing network")
		}
		return TickResult{Executed: true}
	}}
	p := newTestPE(core, f)
	p.Tick(0, 4, 0)
	if p.PNI().Outstanding() != 0 {
		t.Fatal("refused issue left pending state")
	}
	if !p.PNI().canIssue(100) {
		t.Fatal("refused issue blocked the address")
	}
}

func TestPEStatsAccounting(t *testing.T) {
	f := &fakeNet{}
	ticks := 0
	core := &stubCore{onTick: func(env *Env) TickResult {
		ticks++
		switch ticks {
		case 1:
			return TickResult{Executed: true}
		case 2:
			return TickResult{Executed: true, LocalRef: true}
		case 3:
			return TickResult{} // idle
		default:
			return TickResult{Halted: true}
		}
	}}
	p := newTestPE(core, f)
	for i := int64(0); i < 6; i++ {
		p.Tick(i, 4, 0)
	}
	s := p.Stats()
	if s.Instructions.Value() != 2 || s.IdleCycles.Value() != 1 || s.LocalRefs.Value() != 1 {
		t.Fatalf("stats = instr %d idle %d local %d, want 2/1/1",
			s.Instructions.Value(), s.IdleCycles.Value(), s.LocalRefs.Value())
	}
	if !p.Halted() {
		t.Fatal("PE not halted")
	}
	if ticks != 4 {
		t.Fatalf("core ticked %d times after halt, want 4", ticks)
	}
}

func TestDeliverUnknownReplyPanics(t *testing.T) {
	p := newTestPE(&stubCore{onTick: func(*Env) TickResult { return TickResult{} }}, &fakeNet{})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown reply did not panic")
		}
	}()
	p.Deliver(msg.Reply{ID: 12345}, 0)
}

func TestRequestIDsUniquePerPE(t *testing.T) {
	f := &fakeNet{}
	core := &stubCore{onTick: func(env *Env) TickResult {
		env.Issue(msg.Load, int64(len(f.reqs)), 0, 0)
		return TickResult{Executed: true}
	}}
	p := newTestPE(core, f)
	for i := int64(0); i < 4; i++ {
		p.Tick(i, 4, 0)
	}
	seen := map[uint64]bool{}
	for _, r := range f.reqs {
		if seen[r.ID] {
			t.Fatalf("duplicate request ID %d", r.ID)
		}
		seen[r.ID] = true
		if r.PE != 3 {
			t.Fatalf("request PE = %d, want 3", r.PE)
		}
	}
}

// TestPNIZeroAlloc: a PNI's outstanding-request list starts in its
// machine's slab with room for the default pipelining limit, so from the
// first issue on a full window of issues and its completions, in an order
// that exercises the swap-remove, allocate nothing. Each round runs on a
// PNI that has never issued.
func TestPNIZeroAlloc(t *testing.T) {
	const window = 12
	var ids [window]uint64
	n := 0
	pes := NewPEs(make([]Core, 101), memory.Interleave{N: 4}, func(_ int, r msg.Request) bool {
		ids[n] = r.ID
		n++
		return true
	}, window, nil)
	next := 0
	round := func() {
		p := pes[next].PNI()
		next++
		n = 0
		for a := int64(0); a < window; a++ {
			if !p.issue(msg.Load, 100+a, 0, int(a), 0, 0) {
				t.Fatalf("issue %d of %d refused", a, window)
			}
		}
		if p.issue(msg.Load, 200, 0, 0, 0, 0) {
			t.Fatalf("issue beyond %d outstanding accepted", window)
		}
		// Evens first, then odds: completions out of issue order.
		for _, start := range []int{0, 1} {
			for i := start; i < window; i += 2 {
				if pr, ok := p.complete(msg.Reply{ID: ids[i]}); !ok || pr.tag != i {
					t.Fatalf("complete of request %d = %+v, %v", i, pr, ok)
				}
			}
		}
		if p.Outstanding() != 0 {
			t.Fatalf("outstanding = %d after a full round, want 0", p.Outstanding())
		}
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a fresh PNI's first %d issues and completions allocate %.2f times, want 0", window, avg)
	}
}

// TestPNISpillKeepsOrder: a PNI allowed more outstanding requests than
// its window appends past it into an array of its own, keeping its
// requests in issue order, and never writes a neighbour's slots.
func TestPNISpillKeepsOrder(t *testing.T) {
	const limit = 2*pendingRoom + 3
	pes := NewPEs(make([]Core, 3), memory.Interleave{N: 4}, func(int, msg.Request) bool { return true }, limit, nil)
	issue := func(p *PNI, count int, base int64) {
		for a := int64(0); a < int64(count); a++ {
			if !p.issue(msg.Load, base+a, 0, int(a), 0, 0) {
				t.Fatalf("pe %d: issue %d refused", p.pe, a)
			}
		}
	}
	first, mid, last := pes[0].PNI(), pes[1].PNI(), pes[2].PNI()
	if cap(mid.pending) != pendingRoom {
		t.Fatalf("window of %d slots, want %d", cap(mid.pending), pendingRoom)
	}
	window := &mid.pending[:1][0]
	issue(first, pendingRoom, 1000)
	issue(last, pendingRoom, 3000)
	before := [2][]pendingReq{slices.Clone(first.pending), slices.Clone(last.pending)}
	issue(mid, limit, 2000)
	if &mid.pending[0] == window {
		t.Fatal("a list past its window still starts in the slab")
	}
	for i, pr := range mid.pending {
		if pr.addr != 2000+int64(i) || pr.tag != i {
			t.Fatalf("after the spill slot %d holds %+v, want request %d", i, pr, i)
		}
	}
	if !slices.Equal(first.pending, before[0]) || !slices.Equal(last.pending, before[1]) {
		t.Fatal("a spilling PNI wrote a neighbour's slots")
	}
	if mid.canIssue(9999) {
		t.Fatalf("issue beyond %d outstanding allowed", limit)
	}
}
