package pe

import (
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
)

// drive runs a GoCore-backed PE against a scripted network: each cycle
// the PE ticks once, then every request injected that cycle is answered
// with a reply after `latency` further ticks.
type driver struct {
	p       *PE
	f       *fakeNet
	backing map[int64]int64
	hash    memory.Hasher
	inbox   []pendingReply
	cycle   int64
	latency int64
}

type pendingReply struct {
	rep msg.Reply
	at  int64
}

func newDriver(prog Program, latency int64) *driver {
	d := &driver{
		f:       &fakeNet{},
		backing: map[int64]int64{},
		hash:    memory.Interleave{N: 4},
		latency: latency,
	}
	d.p = New(0, NewGoCore(prog), d.hash, d.f.inject, 8)
	return d
}

// linear recovers the flat address from a hashed one (Interleave).
func (d *driver) linear(a msg.Addr) int64 { return int64(a.Word)*4 + int64(a.MM) }

func (d *driver) run(t *testing.T, limit int64) {
	t.Helper()
	served := 0
	for ; d.cycle < limit; d.cycle++ {
		d.p.Tick(d.cycle, 1, 0)
		// Serve newly injected requests.
		for ; served < len(d.f.reqs); served++ {
			r := d.f.reqs[served]
			la := d.linear(r.Addr)
			newVal, ret := msg.Apply(r.Op, d.backing[la], r.Operand)
			d.backing[la] = newVal
			d.inbox = append(d.inbox, pendingReply{
				rep: msg.Reply{ID: r.ID, PE: r.PE, Op: r.Op, Addr: r.Addr, Value: ret},
				at:  d.cycle + d.latency,
			})
		}
		// Deliver due replies.
		var keep []pendingReply
		for _, pr := range d.inbox {
			if pr.at <= d.cycle {
				d.p.Deliver(pr.rep, d.cycle)
			} else {
				keep = append(keep, pr)
			}
		}
		d.inbox = keep
		if d.p.Halted() && d.p.Drained() {
			return
		}
	}
	t.Fatalf("program did not halt within %d cycles", limit)
}

func TestGoCoreBlockingOps(t *testing.T) {
	var got []int64
	d := newDriver(func(ctx *Ctx) {
		ctx.Store(8, 5)
		got = append(got, ctx.Load(8))
		got = append(got, ctx.FetchAdd(8, 2))
		got = append(got, ctx.Swap(8, 1))
		got = append(got, ctx.FetchOp(msg.FetchMax, 8, 100))
		if !ctx.TestAndSet(9) && ctx.TestAndSet(9) {
			got = append(got, 1)
		}
	}, 3)
	d.run(t, 10_000)
	want := []int64{5, 5, 7, 1, 1}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

func TestGoCoreAsyncHandles(t *testing.T) {
	var v1, v2 int64
	d := newDriver(func(ctx *Ctx) {
		ctx.Store(4, 11)
		ctx.Store(5, 22)
		ctx.Fence()
		h1 := ctx.LoadAsync(4)
		h2 := ctx.LoadAsync(5)
		ctx.Compute(10) // overlap
		v1, v2 = h1.Wait(), h2.Wait()
	}, 5)
	d.run(t, 10_000)
	if v1 != 11 || v2 != 22 {
		t.Fatalf("async loads = %d, %d", v1, v2)
	}
}

func TestGoCoreFloatHelpers(t *testing.T) {
	var got float64
	d := newDriver(func(ctx *Ctx) {
		ctx.StoreF(12, 2.75)
		h := ctx.LoadAsyncF(12)
		got = h.WaitF() + ctx.LoadF(12)
	}, 2)
	d.run(t, 10_000)
	if got != 5.5 {
		t.Fatalf("float round trip = %v, want 5.5", got)
	}
}

func TestGoCoreFenceDrains(t *testing.T) {
	fenced := false
	d := newDriver(func(ctx *Ctx) {
		for i := int64(0); i < 5; i++ {
			ctx.Store(i, i)
		}
		ctx.Fence()
		fenced = true
	}, 7)
	d.run(t, 10_000)
	if !fenced {
		t.Fatal("fence never completed")
	}
	for i := int64(0); i < 5; i++ {
		if d.backing[i] != i {
			t.Fatalf("backing[%d] = %d after fence", i, d.backing[i])
		}
	}
}

func TestGoCorePrivateCountsLocalRefs(t *testing.T) {
	d := newDriver(func(ctx *Ctx) {
		ctx.Private(7)
		ctx.Compute(3)
		ctx.Pause()
	}, 1)
	d.run(t, 1000)
	s := d.p.Stats()
	if s.LocalRefs.Value() != 7 {
		t.Fatalf("local refs = %d, want 7", s.LocalRefs.Value())
	}
	if s.Instructions.Value() != 11 { // 7 + 3 + 1 pause
		t.Fatalf("instructions = %d, want 11", s.Instructions.Value())
	}
}

func TestMultiCoreTagRouting(t *testing.T) {
	var a, b int64
	mc := NewMultiCore(
		NewGoCore(func(ctx *Ctx) { a = ctx.FetchAdd(0, 1) }),
		NewGoCore(func(ctx *Ctx) { b = ctx.FetchAdd(0, 1) }),
	)
	d := &driver{
		f:       &fakeNet{},
		backing: map[int64]int64{},
		hash:    memory.Interleave{N: 4},
		latency: 2,
	}
	d.p = New(0, mc, d.hash, d.f.inject, 8)
	d.run(t, 10_000)
	if a+b != 1 { // tickets 0 and 1 in some order
		t.Fatalf("tickets = %d, %d", a, b)
	}
	if d.backing[0] != 2 {
		t.Fatalf("counter = %d, want 2", d.backing[0])
	}
}

func TestMultiCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty MultiCore did not panic")
		}
	}()
	NewMultiCore()
}

func TestCachedMemBasics(t *testing.T) {
	var hit1, hit2 int64
	d := newDriver(func(ctx *Ctx) {
		c := ctx.NewCache(testCacheCfg())
		c.Store(0, 9)
		hit1 = c.Load(0) // cache hit
		c.Flush(0, 8)
		hit2 = c.Load(0)
		c.Release(0, 8)
		if c.Contains(0) {
			hit2 = -1
		}
	}, 2)
	d.run(t, 100_000)
	if hit1 != 9 || hit2 != 9 {
		t.Fatalf("cached loads = %d, %d; want 9, 9", hit1, hit2)
	}
	if d.backing[0] != 9 {
		t.Fatalf("flush did not reach backing: %d", d.backing[0])
	}
}

func testCacheCfg() cache.Config { return cache.Config{Sets: 4, Ways: 2, BlockWords: 4} }

// TestGoCoreZeroAlloc: once the tag table and the PNI's outstanding list
// have grown, a Go guest's blocking Compute, Load, FetchAdd and Store
// allocate nothing — the core hands the program's one action back and
// forth and a blocking op waits on a handle the core owns.
func TestGoCoreZeroAlloc(t *testing.T) {
	const rounds = 200 // more than AllocsPerRun's warm-up plus its runs
	done := 0
	f := &fakeNet{}
	p := New(0, NewGoCore(func(ctx *Ctx) {
		for i := 0; i < rounds; i++ {
			ctx.Compute(2)
			v := ctx.Load(8)
			ctx.FetchAdd(9, v)
			ctx.Store(8, v+1)
			done++
		}
	}), memory.Interleave{N: 4}, f.inject, 8)
	var cycle int64
	round := func() {
		for start := done; done == start && !p.Halted(); cycle++ {
			p.Tick(cycle, 1, 0)
			for _, r := range f.reqs {
				p.Deliver(msg.Reply{ID: r.ID, PE: r.PE, Op: r.Op, Addr: r.Addr}, cycle)
			}
			f.reqs = f.reqs[:0]
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a round of blocking guest ops allocates %.2f times after warm-up, want 0", avg)
	}
	for !p.Halted() {
		round()
	}
}
