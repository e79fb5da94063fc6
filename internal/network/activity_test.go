package network

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// checkActivity asserts the activity-flag contract after a cycle:
//
//	(a) flag clear ⇒ nothing for the pump to do until somebody pushes: a
//	    link's queue is empty and no undelivered message is in service
//	    (a delivered one may stay in the record, its tail unchecked), an
//	    MM arrival queue or PE receive buffer is empty, and the deferred
//	    count of every unit equals its valid revDefer registers;
//	(b) a link flag f > 1 skips the link's next f − 1 pumps, so the link
//	    must be dormant for as long: either its message is delivered and
//	    the tail frees the link no earlier than cycle + f, or an end stage
//	    (MNI, PNI) is assembling its message and the last packet arrives
//	    at exactly cycle + f;
//	(c) the flags are tight: every set flag has a message of its own (an
//	    undelivered one in service, or a non-empty queue behind the link),
//	    so no more flags are set than messages are in flight; and with
//	    nothing in flight every flag is clear and every link's tail has
//	    ended, which is why Machine.Done, asking InFlight, stops on the
//	    cycle it stopped on when InFlight counted the tails.
func (h *harness) checkActivity() {
	h.t.Helper()
	n, act := h.net, &h.net.act
	set := 0
	check := func(what string, flag uint8, idle bool) {
		if flag != 0 {
			set++
		} else if !idle {
			h.t.Fatalf("cycle %d: %s busy with its activity flag clear", h.cycle, what)
		}
	}
	// link checks one link record's flag; free is the cycle its tail
	// frees the link, endStage whether its message is assembled there.
	link := func(what string, i int, flag uint8, empty, active, delivered, endStage bool, free int64) {
		check(what, flag, empty && !(active && !delivered))
		wake := h.cycle + int64(flag)
		if flag > 1 && !(active && delivered && wake <= free) && !(active && !delivered && endStage && wake == free) {
			h.t.Fatalf("cycle %d: %s %d sleeps until cycle %d (flag %d): active %v, delivered %v, end stage %v, last packet at cycle %d",
				h.cycle, what, i, wake, flag, active, delivered, endStage, free)
		}
	}
	lines, ends := n.topo.lines, n.topo.stages*n.topo.lines
	for i := range n.fwd {
		f, r := &n.fwd[i], &n.rev[i]
		link("forward link", i, act.fwd[i], f.q.empty(), f.active, f.delivered, i >= ends, f.start+int64(f.req.Packets()))
		link("reverse link", i, act.rev[i], r.q.empty(), r.active, r.delivered, i < lines, r.start+int64(r.rep.Packets()))
	}
	stages := n.topo.stages
	for u, got := range act.deferred {
		valid := 0
		for _, d := range n.revDefer[u*stages : (u+1)*stages] {
			if d.valid {
				valid++
			}
		}
		if int(got) != valid {
			h.t.Fatalf("cycle %d: unit %d counts %d deferred replies, holds %d", h.cycle, u, got, valid)
		}
	}
	for i := range n.mmIn {
		check("MM arrival queue", act.mm[i], n.mmIn[i].empty())
		check("PE receive buffer", act.pe[i], len(n.peRecv[i]) == 0)
	}
	inFlight := n.InFlight()
	if set > inFlight {
		h.t.Fatalf("cycle %d: %d activity flags set for %d messages in flight", h.cycle, set, inFlight)
	}
	if inFlight != 0 {
		return
	}
	for i := range n.fwd {
		f, r := &n.fwd[i], &n.rev[i]
		if f.active && f.start+int64(f.req.Packets()) > h.cycle || r.active && r.start+int64(r.rep.Packets()) > h.cycle {
			h.t.Fatalf("cycle %d: nothing in flight, but the tail on link %d has not ended", h.cycle, i)
		}
	}
}

// checkConservation asserts, after a cycle, the two invariants a change
// of the link-state layout can silently break:
//
//	(a) every accepted request is owed exactly one reply, and the network
//	    plus the harness's memory side hold exactly that many: Injected −
//	    RepliesDelivered equals InFlight — which counts a message in
//	    service only until its header is delivered, and then where it went
//	    — plus the replies the harness's modules hold;
//	(b) no wait buffer holds two records with one key — the reason for the
//	    one-outstanding-reference-per-location rule: a returning reply
//	    names the record to decombine by that key alone.
func (h *harness) checkConservation() {
	h.t.Helper()
	n := h.net
	owed := n.InFlight()
	for i := range n.rev {
		recs := n.rev[i].wb.recs
		for a, rec := range recs {
			for _, other := range recs[:a] {
				if other.a.id == rec.a.id {
					h.t.Fatalf("cycle %d: wait buffer %d holds two records keyed %d", h.cycle, i, rec.a.id)
				}
			}
		}
	}
	for _, p := range h.pending {
		if p != nil {
			owed++
		}
	}
	st := n.Stats()
	if want := int(st.Injected.Value() - st.RepliesDelivered.Value()); owed != want {
		h.t.Fatalf("cycle %d: %d replies owed by what the network holds, %d by the counters (injected %d, delivered %d)",
			h.cycle, owed, want, st.Injected.Value(), st.RepliesDelivered.Value())
	}
}

// checkAliasing asserts, after a cycle, that no two rooms share a backing
// element anywhere in their windows (every slot up to a room's capacity,
// live or not): every link queue, MM arrival queue, wait buffer, PE
// receive buffer and Collect scratch buffer may start in a slab it shares
// with its neighbours and move to a window of a chunk it shares with
// others, and an append that ran past its own window would write theirs.
func (h *harness) checkAliasing() {
	h.t.Helper()
	n := h.net
	type extent struct {
		lo, hi uintptr
		what   string
		i      int
	}
	var windows []extent
	add := func(what string, i int, p unsafe.Pointer, count int, size uintptr) {
		if count > 0 {
			lo := uintptr(p)
			windows = append(windows, extent{lo, lo + uintptr(count)*size, what, i})
		}
	}
	for i := range n.fwd {
		q, r, w := &n.fwd[i].q, &n.rev[i].q, &n.rev[i].wb
		add("forward queue", i, unsafe.Pointer(unsafe.SliceData(q.entries)), cap(q.entries), unsafe.Sizeof(msg.Request{}))
		add("reverse queue", i, unsafe.Pointer(unsafe.SliceData(r.entries)), cap(r.entries), unsafe.Sizeof(msg.Reply{}))
		add("wait buffer", i, unsafe.Pointer(unsafe.SliceData(w.recs)), cap(w.recs), unsafe.Sizeof(waitRec{}))
	}
	for i := range n.mmIn {
		q := &n.mmIn[i]
		add("MM arrival queue", i, unsafe.Pointer(unsafe.SliceData(q.entries)), cap(q.entries), unsafe.Sizeof(msg.Request{}))
		add("PE receive buffer", i, unsafe.Pointer(unsafe.SliceData(n.peRecv[i])), cap(n.peRecv[i]), unsafe.Sizeof(msg.Reply{}))
	}
	if n.room != nil {
		for pe, b := range n.room.collect {
			add("Collect buffer", pe, unsafe.Pointer(unsafe.SliceData(b)), cap(b), unsafe.Sizeof(msg.Reply{}))
		}
	}
	sort.Slice(windows, func(a, b int) bool { return windows[a].lo < windows[b].lo })
	for i := 1; i < len(windows); i++ {
		if a, b := windows[i-1], windows[i]; b.lo < a.hi {
			h.t.Fatalf("cycle %d: the windows of %s %d and %s %d share backing storage", h.cycle, a.what, a.i, b.what, b.i)
		}
	}
}

// deferredNow counts the occupied revDefer registers.
func (h *harness) deferredNow() int {
	total := 0
	for _, d := range h.net.act.deferred {
		total += int(d)
	}
	return total
}

// hotFlood has every PE offer, with probability one half a cycle, a
// load or a fetch-and-add on one word for rounds cycles (one-packet loads
// queue up behind each other, so requests that entered a switch by the
// same port combine and their replies leave by the same ToPE queue),
// calls each (if non-nil) after every cycle, drains, and checks one reply
// per accepted request and the conserved total.
func (h *harness) hotFlood(t *testing.T, rounds int, each func(round int)) {
	t.Helper()
	addr := msg.Addr{MM: 1, Word: 2}
	rng := sim.NewRand(5)
	accepted, added := 0, 0
	for round := 0; round < rounds; round++ {
		for p := 0; p < h.net.Ports(); p++ {
			if !rng.Bernoulli(0.5) {
				continue
			}
			req := msg.Request{ID: uint64(p)<<32 | uint64(round+1), PE: p, Op: msg.Load, Addr: addr}
			if rng.Bernoulli(0.5) {
				req.Op, req.Operand = msg.FetchAdd, 1
			}
			if h.st.Inject(p, req, h.cycle) {
				accepted++
				added += int(req.Operand)
			}
		}
		h.step()
		if each != nil {
			each(round)
		}
	}
	h.drain(t, 100_000)
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != accepted {
		t.Fatalf("replies = %d, want %d accepted", got, accepted)
	}
	if h.words[addr] != int64(added) {
		t.Fatalf("hot word = %d, want %d", h.words[addr], added)
	}
}

// TestActivityDeferredRegister forces the revDefer path: on a hot word
// with one-message ToPE queues, a decombination's second reply finds its
// queue full and waits in the switch's register, which only the deferred
// count tells the Stepper to visit.
func TestActivityDeferredRegister(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, Combining: true, QueueCapacity: msg.PacketsWithData}
	h := newHarness(t, cfg)
	peak := 0
	h.hotFlood(t, 60, func(int) {
		if d := h.deferredNow(); d > peak {
			peak = d
		}
	})
	if peak == 0 {
		t.Fatal("no decombined reply was ever deferred; the case does not cover revDefer")
	}
	if h.net.Stats().Decombines.Value() == 0 {
		t.Fatal("no decombines on a hot word")
	}
}

// TestActivityTwoCopiesFailCopy runs the same flood over a duplexed
// network and fail-stops one copy mid-run: the copies' flags share each
// array, and a dead copy must still drain through its own.
func TestActivityTwoCopiesFailCopy(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, Copies: 2, Combining: true, QueueCapacity: msg.PacketsWithData}
	h := newHarness(t, cfg)
	h.hotFlood(t, 40, func(round int) {
		if round == 15 {
			h.net.FailCopy(1)
		}
	})
}

// TestPushOntoDormantLinkIsExact: a message pushed onto a link whose last
// message is delivered but whose tail still holds it enters service, and
// its reply comes home, on the very cycles it does when every link is
// pumped every cycle. Two ways to be dormant: with a message queued
// behind, the flag counts the tail down (the push stores 1, the next pump
// is a no-op that returns the remainder); with nothing queued, the tail
// is never visited at all (the flag is 0, and the pump the push triggers
// finds the tail still on the wire and returns the remainder).
func TestPushOntoDormantLinkIsExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  []uint64 // injected at cycle 0
		flag   uint8    // the PNI link's flag before cycle 2
		pushed uint64   // injected at cycle 2
		home   []int64  // the cycle each reply is collected
	}{
		{"tail counting down", []uint64{1, 2}, 2, 3, []int64{11, 14, 17}},
		{"tail never visited", []uint64{1}, 0, 2, []int64{11, 14}},
	} {
		for _, exhaustive := range []bool{false, true} {
			h := newHarness(t, Config{K: 2, Stages: 2})
			pni := h.net.fwdAt(-1, 0)
			inject := func(id uint64) {
				r := msg.Request{ID: id, Op: msg.FetchAdd, Addr: msg.Addr{MM: 3}, Operand: 1} // 3 packets
				if !h.st.Inject(0, r, h.cycle) {
					t.Fatalf("%s: inject %d refused", tc.name, id)
				}
			}
			var home []int64 // the cycle each reply was collected
			for _, id := range tc.first {
				inject(id)
			}
			for len(home) < len(tc.home) {
				if h.cycle == 2 {
					// Message 1 left the queue at cycle 0 and its header moved
					// on at cycle 1; its tail holds the link through cycle 2.
					if got := h.net.act.fwd[pni]; !exhaustive && got != tc.flag {
						t.Fatalf("%s: PNI link flag reads %d before cycle 2, want %d", tc.name, got, tc.flag)
					}
					inject(tc.pushed)
				}
				if h.cycle == 100 {
					t.Fatalf("%s, exhaustive %v: %d replies after 100 cycles", tc.name, exhaustive, len(home))
				}
				if exhaustive {
					for i := range h.net.act.fwd {
						h.net.act.fwd[i], h.net.act.rev[i] = 1, 1
					}
				}
				h.step() // increments h.cycle
				if ln := &h.net.fwd[pni]; ln.req.ID == 2 && ln.start != 3 {
					t.Fatalf("%s, exhaustive %v: message 2 entered service at cycle %d, want 3", tc.name, exhaustive, ln.start)
				}
				for len(home) < len(h.replies) {
					home = append(home, h.cycle-1)
				}
			}
			if !slices.Equal(home, tc.home) {
				t.Errorf("%s, exhaustive %v: replies collected at cycles %v, want %v", tc.name, exhaustive, home, tc.home)
			}
		}
	}
}

// TestSweepMatchesExhaustivePumping is the activity flags' referee: the
// same seeded traffic, driven once by the sweep and once with every link
// flag forced to 1 before each Step — every link pumped every cycle, the
// loop the flags replaced — must record the same event stream, end with
// the same Stats and hand every PE the same replies in the same order on
// the same cycles. Queues of three or four packets make links block and
// decombined replies wait in revDefer; the hot spot mixes one-packet
// loads and store acknowledgements with three-packet messages.
func TestSweepMatchesExhaustivePumping(t *testing.T) {
	type outcome struct {
		events   []obs.Event
		stats    *Stats
		replies  []msg.Reply // in collect order: by cycle, then by PE
		home     []int64     // the cycle each reply was collected
		deferred int         // revDefer registers occupied, summed over cycles
	}
	for _, c := range []struct {
		name string
		cfg  Config
		hot  float64 // share of references to one word, by a load/store/F&A mix
		fail int64   // the cycle copy 1 fail-stops; 0: never
	}{
		{"uniform", Config{K: 2, Stages: 6, Combining: true, QueueCapacity: 4}, 0, 0},
		{"hot spot", Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 3}, 0.3, 0},
		{"two copies, one failed", Config{K: 4, Stages: 2, Copies: 2, Combining: true, QueueCapacity: 3}, 0.2, 60},
	} {
		run := func(exhaustive bool) outcome {
			h := newHarness(t, c.cfg)
			rec := obs.NewRecorder(1 << 16)
			h.net.SetProbe(rec)
			rng := sim.NewRand(11)
			ops := [...]msg.Op{msg.Load, msg.Store, msg.FetchAdd}
			ports := h.net.Ports()
			var o outcome
			const traffic = 150
			for h.cycle < traffic || h.net.InFlight() != 0 || !h.allIdle() {
				if h.cycle == 20_000 {
					t.Fatalf("%s, exhaustive %v: not drained by cycle %d", c.name, exhaustive, h.cycle)
				}
				if c.fail != 0 && h.cycle == c.fail {
					h.net.FailCopy(1)
				}
				for pe := 0; h.cycle < traffic && pe < ports; pe++ {
					if !rng.Bernoulli(0.25) {
						continue
					}
					r := msg.Request{
						ID: uint64(pe)<<32 | uint64(h.cycle+1), PE: pe, Op: msg.FetchAdd, Operand: 1,
						Addr: msg.Addr{MM: rng.Intn(ports), Word: rng.Intn(8)},
					}
					if rng.Bernoulli(c.hot) {
						r.Op, r.Addr = ops[rng.Intn(len(ops))], msg.Addr{MM: 3, Word: 1}
					}
					h.st.Inject(pe, r, h.cycle)
				}
				if exhaustive {
					for i := range h.net.act.fwd {
						h.net.act.fwd[i], h.net.act.rev[i] = 1, 1
					}
				}
				h.step()
				o.deferred += h.deferredNow()
				for len(o.home) < len(h.replies) {
					o.home = append(o.home, h.cycle-1)
				}
			}
			if rec.Overwritten() != 0 {
				t.Fatalf("%s: the recorder overwrote %d events", c.name, rec.Overwritten())
			}
			o.events, o.stats, o.replies = rec.Events(), h.net.Stats(), h.replies
			return o
		}
		sweep, all := run(false), run(true)
		if !slices.Equal(sweep.events, all.events) {
			t.Errorf("%s: %d events recorded by the sweep, %d by exhaustive pumping; they differ", c.name, len(sweep.events), len(all.events))
		}
		if !reflect.DeepEqual(sweep.stats, all.stats) {
			t.Errorf("%s: stats differ:\nsweep      %+v\nexhaustive %+v", c.name, *sweep.stats, *all.stats)
		}
		if !slices.Equal(sweep.replies, all.replies) || !slices.Equal(sweep.home, all.home) {
			t.Errorf("%s: the PEs were handed different replies or on different cycles", c.name)
		}
		st := sweep.stats
		t.Logf("%s: %d events, %d replies, %d combines, %d deferred register-cycles",
			c.name, len(sweep.events), st.RepliesDelivered.Value(), st.Combines.Value(), sweep.deferred)
		if st.RepliesDelivered.Value() == 0 || (c.hot > 0 && (st.Combines.Value() == 0 || sweep.deferred == 0)) {
			t.Errorf("%s: the case does not cover what it is for: %+v, deferred %d", c.name, *st, sweep.deferred)
		}
	}
}

// departures counts the messages that entered service on a link: one
// event per traced message per link crossed.
type departures struct{ fwd, rev int }

func (d *departures) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindStageDepart:
		d.fwd++
	case obs.KindReplyDepart:
		d.rev++
	}
}

// TestPumpBudgetUnderTraffic is the host-independent guard on what a
// message costs the sweep: on the benchmark's 64-port shape at the Figure
// 7 reference rate (p = 0.2, uniform), the links pumped — the flags that
// read 1 as a phase starts — per message per link crossed stay at or below
// 2.25 in each direction (2.06 and 2.02 today). A hop takes two pumps,
// one to take the message into service and one to deliver its header —
// at an end stage, whose delivery waits for the tail, one pump can do
// both for consecutive messages — plus blocked retries and wake-ups of a
// tail still on the wire. The ≈ 2.6 this replaced added a free-the-link
// pump onto an empty queue and a pump per cycle while an end stage
// assembled its message.
func TestPumpBudgetUnderTraffic(t *testing.T) {
	h := newHarness(t, Config{K: 2, Stages: 6, Combining: true})
	var fwd, rev int
	count := func(pumps *int, flags []uint8) {
		for _, f := range flags {
			if f == 1 {
				*pumps++
			}
		}
	}
	// Stepper.Step's phases, in its order, each counted as it starts.
	h.net.carve()
	h.netStep = func(cycle int64) {
		tp, act, st := h.net.topo, &h.net.act, h.st
		for s := -1; s < tp.stages; s++ {
			flags := act.fwd[(s+1)*tp.lines : (s+2)*tp.lines]
			count(&fwd, flags)
			st.sweep(phForward, cycle, s, flags, tp.k)
		}
		st.sweep(phDeferred, cycle, 0, act.deferred, 1)
		for s := tp.stages; s >= 0; s-- {
			flags := act.rev[s*tp.lines : (s+1)*tp.lines]
			count(&rev, flags)
			st.sweep(phReverse, cycle, s, flags, tp.k)
		}
	}
	var crossed departures
	h.net.SetTracer(&crossed) // departures go only to the tracer, for traced messages
	rng := sim.NewRand(7)
	ports := h.net.Ports()
	for h.cycle < 1500 {
		for pe := 0; pe < ports; pe++ {
			if rng.Bernoulli(0.2) {
				id := uint64(pe)<<32 | uint64(h.cycle+1)
				h.st.Inject(pe, msg.Request{
					ID: id, PE: pe, Op: msg.FetchAdd, Operand: 1, TC: msg.TraceCtx{Sampled: true},
					Addr: msg.Addr{MM: rng.Intn(ports), Word: rng.Intn(64)},
				}, h.cycle)
			}
		}
		h.step()
	}
	h.drain(t, 10_000)
	perFwd, perRev := float64(fwd)/float64(crossed.fwd), float64(rev)/float64(crossed.rev)
	t.Logf("%d requests, %d replies; pumps per message per link: %.3f forward (%d over %d), %.3f reverse (%d over %d)",
		h.net.Stats().Injected.Value(), h.net.Stats().RepliesDelivered.Value(), perFwd, fwd, crossed.fwd, perRev, rev, crossed.rev)
	if crossed.fwd == 0 || crossed.rev == 0 {
		t.Fatal("no traffic crossed the network")
	}
	if perFwd > 2.25 || perRev > 2.25 {
		t.Errorf("%.3f forward and %.3f reverse pumps per message per link crossed, want at most 2.25 each", perFwd, perRev)
	}
}

// TestSweepVisitsExactlyFlaggedUnits checks the word-at-a-time scan
// against the obvious one for unit widths that do and do not divide
// eight, over a phase that ends off a word boundary. The sweep
// pumps what it visits, so every place it could visit is loaded with one
// traced message — a link's queue, a unit's deferred register — and only
// the pattern is flagged: a visit then shows as the event of that message
// entering service (or leaving the register), whatever the flag said, and
// the events come out in visiting order. Part of the pattern is flagged 2:
// on a link that is a dormant tail, to be counted down and not visited; on
// a unit's deferred registers it is a count, to be visited like any other.
func TestSweepVisitsExactlyFlaggedUnits(t *testing.T) {
	for _, tc := range []struct {
		kind phaseKind
		cfg  Config // every shape has at least 41 units
	}{
		{phDeferred, Config{K: 2, Stages: 5, Copies: 3}}, // width 1
		{phForward, Config{K: 2, Stages: 5, Copies: 3}},
		{phReverse, Config{K: 3, Stages: 3, Copies: 5}},
		{phForward, Config{K: 4, Stages: 3, Copies: 3}},
		{phReverse, Config{K: 5, Stages: 2, Copies: 9}},
		{phForward, Config{K: 8, Stages: 2, Copies: 6}},
		{phReverse, Config{K: 9, Stages: 2, Copies: 5}},
		{phForward, Config{K: 16, Stages: 2, Copies: 3}},
	} {
		const units = 41
		n := New(tc.cfg)
		n.carve() // the messages below enter by hand, not by inject
		rec := obs.NewRecorder(1 << 12)
		n.SetTracer(rec)
		st := NewStepper(n, nil)
		lines, per, stage := n.topo.lines, tc.cfg.K, 1
		var flags []uint8
		switch tc.kind {
		case phForward: // the links out of stage 0
			flags, stage = n.act.fwd[lines:2*lines], 0
			for p := range flags {
				id := uint64(p + 1)
				n.fwd[lines+p].q.push(&msg.Request{ID: id, TC: msg.TraceCtx{Sampled: true}}, n.cfg.QueueCapacity, &n.room.reqs)
			}
		case phReverse: // the links out of stage 1
			flags = n.act.rev[lines : 2*lines]
			for p := range flags {
				id := uint64(p + 1)
				n.rev[lines+p].q.push(&msg.Reply{ID: id, TC: msg.TraceCtx{Sampled: true}}, n.cfg.QueueCapacity, &n.room.reps)
			}
		case phDeferred: // the units' stage-0 registers
			flags, per = n.act.deferred, 1
			for u := range flags {
				id := uint64(u + 1)
				n.revDefer[u*n.topo.stages] = deferredReply{
					rep: msg.Reply{ID: id, TC: msg.TraceCtx{Sampled: true}}, at: n.revAt(0, u*tc.cfg.K), valid: true,
				}
			}
		}
		flags = flags[:units*per] // a load past the phase's end panics
		var want, got []int
		after := make([]uint8, len(flags)) // the flags the sweep must leave
		for i := range flags {
			// A long idle stretch in the middle.
			if i >= 10*per && i < 30*per {
				continue
			}
			switch {
			case i%11 == 5:
				flags[i] = 2
			case i%7 == 3 || i%29 == 0:
				flags[i] = 1
			}
			after[i] = flags[i]
			if flags[i] == 0 {
				continue
			}
			switch {
			case tc.kind == phDeferred: // visited; the flush strikes its one register off the count
				want = append(want, i)
				after[i]--
			case flags[i] == 2: // counted down
				after[i] = 1
			default: // visited; the pump takes the message into service: pump again
				want = append(want, i)
			}
		}
		st.sweep(tc.kind, 0, stage, flags, per)
		for _, ev := range rec.Events() {
			got = append(got, int(ev.ID)-1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("kind %d width %d: visited %v, want %v", tc.kind, per, got, want)
		}
		if !slices.Equal(flags, after) {
			t.Fatalf("kind %d width %d: flags left %v, want %v", tc.kind, per, flags, after)
		}
	}
}
