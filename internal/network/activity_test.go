package network

import (
	"slices"
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// checkActivity asserts the activity-flag contract after a cycle:
//
//	(a) flag clear ⇒ link idle, for every link, MM arrival queue and PE
//	    receive buffer, and the deferred count of every unit equals its
//	    valid revDefer registers;
//	(b) a link flag f > 1 skips the link's next f − 1 pumps, so the link
//	    must be dormant for as long: its message delivered, and the pump
//	    that follows — at cycle + f — no later than the cycle the tail
//	    frees the link;
//	(c) the flags are tight: no more link flags are set than messages
//	    could occupy links (a P-packet message holds at most P links),
//	    and with nothing in flight every flag is clear.
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
	dormant := func(what string, i int, flag uint8, tail bool, free int64) {
		if flag > 1 && !(tail && h.cycle+int64(flag) <= free) {
			h.t.Fatalf("cycle %d: %s %d sleeps until cycle %d (flag %d): message delivered %v, link free at cycle %d",
				h.cycle, what, i, h.cycle+int64(flag), flag, tail, free)
		}
	}
	for i := range n.fwd {
		f, r := &n.fwd[i], &n.rev[i]
		check("forward link", act.fwd[i], !f.active && f.q.empty())
		check("reverse link", act.rev[i], !r.active && r.q.empty())
		dormant("forward link", i, act.fwd[i], f.active && f.delivered, f.start+int64(f.req.Packets()))
		dormant("reverse link", i, act.rev[i], r.active && r.delivered, r.start+int64(r.rep.Packets()))
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
	inFlight := n.InFlight()
	if set > msg.PacketsWithData*inFlight {
		h.t.Fatalf("cycle %d: %d link flags set for %d messages in flight", h.cycle, set, inFlight)
	}
	for i := range n.mmIn {
		check("MM arrival queue", act.mm[i], n.mmIn[i].empty())
		check("PE receive buffer", act.pe[i], len(n.peRecv[i]) == 0)
	}
	if inFlight == 0 && set != 0 {
		h.t.Fatalf("cycle %d: %d activity flags set on a drained network", h.cycle, set)
	}
}

// checkConservation asserts, after a cycle, the two invariants a change
// of the link-state layout can silently break:
//
//	(a) every accepted request is owed exactly one reply, and the network
//	    plus the harness's memory side hold exactly that many: Injected −
//	    RepliesDelivered equals the queued requests, the requests in
//	    service whose header has not moved on, the wait-buffer records
//	    (one absorbed request each), the same on the reply side, the
//	    deferred registers and whatever the two ends have not picked up.
//	    (InFlight cannot stand in: it counts a delivered message again
//	    while its tail still holds the server.)
//	(b) no wait buffer holds two records with one key — the reason for the
//	    one-outstanding-reference-per-location rule: a returning reply
//	    names the record to decombine by that key alone.
func (h *harness) checkConservation() {
	h.t.Helper()
	n := h.net
	owed := 0
	for i := range n.fwd {
		f, r := &n.fwd[i], &n.rev[i]
		owed += f.q.len() + r.q.len() + r.wb.len()
		if f.active && !f.delivered {
			owed++
		}
		if r.active && !r.delivered {
			owed++
		}
		for a, rec := range r.wb.recs {
			for _, other := range r.wb.recs[:a] {
				if other.key == rec.key {
					h.t.Fatalf("cycle %d: wait buffer %d holds two records keyed %d", h.cycle, i, rec.key)
				}
			}
		}
	}
	for i := range n.mmIn {
		owed += n.mmIn[i].len() + len(n.peRecv[i])
	}
	for _, d := range n.revDefer {
		if d.valid {
			owed++
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

// TestPushOntoDormantLinkIsExact: a message pushed onto a link whose flag
// is counting down a tail (the push stores 1, the next pump is a no-op
// that returns the remainder) enters service, and its reply comes home, on
// the very cycles it does when every link is pumped every cycle.
func TestPushOntoDormantLinkIsExact(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		h := newHarness(t, Config{K: 2, Stages: 2})
		pni := h.net.fwdAt(-1, 0)
		inject := func(id uint64) {
			r := msg.Request{ID: id, Op: msg.FetchAdd, Addr: msg.Addr{MM: 3}, Operand: 1} // 3 packets
			if !h.st.Inject(0, r, h.cycle) {
				t.Fatalf("inject %d refused", id)
			}
		}
		var home []int64 // the cycle each reply was collected
		inject(1)
		for len(home) < 2 {
			if h.cycle == 2 {
				// Message 1 left the queue at cycle 0 and its header moved
				// on at cycle 1; its tail holds the link through cycle 2.
				if got := h.net.act.fwd[pni]; !exhaustive && got != 2 {
					t.Fatalf("PNI link flag reads %d before cycle 2, want 2", got)
				}
				inject(2)
			}
			if h.cycle == 100 {
				t.Fatalf("exhaustive %v: %d replies after 100 cycles", exhaustive, len(home))
			}
			if exhaustive {
				for i := range h.net.act.fwd {
					h.net.act.fwd[i], h.net.act.rev[i] = 1, 1
				}
			}
			h.step() // increments h.cycle
			if ln := &h.net.fwd[pni]; ln.req.ID == 2 && ln.start != 3 {
				t.Fatalf("exhaustive %v: message 2 entered service at cycle %d, want 3", exhaustive, ln.start)
			}
			for len(home) < len(h.replies) {
				home = append(home, h.cycle-1)
			}
		}
		if want := []int64{11, 14}; !slices.Equal(home, want) {
			t.Errorf("exhaustive %v: replies collected at cycles %v, want %v", exhaustive, home, want)
		}
	}
}

// TestSweepVisitsExactlyFlaggedUnits checks the word-at-a-time scan
// against the obvious one for unit widths that do and do not divide
// eight, over ranges that start and end off a word boundary. The sweep
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
		for _, r := range [][2]int{{0, units}, {3, 38}, {12, 13}, {5, 5}} {
			n := New(tc.cfg)
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
					n.fwd[lines+p].q.push(&msg.Request{ID: id, TC: msg.TraceCtx{ID: id}})
				}
			case phReverse: // the links out of stage 1
				flags = n.act.rev[lines : 2*lines]
				for p := range flags {
					id := uint64(p + 1)
					n.rev[lines+p].q.push(&msg.Reply{ID: id, TC: msg.TraceCtx{ID: id}})
				}
			case phDeferred: // the units' stage-0 registers
				flags, per = n.act.deferred, 1
				for u := range flags {
					id := uint64(u + 1)
					n.revDefer[u*n.topo.stages] = deferredReply{
						rep: msg.Reply{ID: id, TC: msg.TraceCtx{ID: id}}, at: n.revAt(0, u*tc.cfg.K), valid: true,
					}
				}
			}
			flags = flags[:units*per] // a load past the last shard's end panics
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
				if flags[i] == 0 || i < r[0]*per || i >= r[1]*per {
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
			st.phKind, st.phStage, st.phaseFlags, st.phasePer = tc.kind, stage, flags, per
			st.sweep(r[0], r[1], &st.ports[0])
			for _, ev := range rec.Events() {
				got = append(got, int(ev.ID)-1)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("kind %d width %d range %v: visited %v, want %v", tc.kind, per, r, got, want)
			}
			if !slices.Equal(flags, after) {
				t.Fatalf("kind %d width %d range %v: flags left %v, want %v", tc.kind, per, r, flags, after)
			}
		}
	}
}
