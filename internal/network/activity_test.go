package network

import (
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/sim"
)

// checkActivity asserts the activity-flag contract after a cycle:
//
//	(a) flag clear ⇒ link idle, for every link, MM arrival queue and PE
//	    receive buffer, and the deferred count of every switch column
//	    equals its valid revDefer registers;
//	(b) the flags are tight: no more link flags are set than messages
//	    could occupy links (a P-packet message holds at most P links),
//	    and with nothing in flight every flag is clear.
func (h *harness) checkActivity() {
	h.t.Helper()
	n, act := h.net, h.net.act
	set := 0
	check := func(what string, flag uint8, idle bool) {
		if flag != 0 {
			set++
		} else if !idle {
			h.t.Fatalf("cycle %d: %s busy with its activity flag clear", h.cycle, what)
		}
	}
	for ci, c := range n.copies {
		t := c.topo
		for s := -1; s < t.stages; s++ {
			for p := 0; p < t.n; p++ {
				l := t.fwdLine(s, p)
				srv, q := &c.pniSrv[l], c.pniQ[l]
				if s >= 0 {
					srv, q = &c.fsrv[s][l], c.fq[s][l]
				}
				check("forward link", act.fwd[s+1][c.base+p], !srv.active && q.empty())
			}
		}
		for s := 0; s <= t.stages; s++ {
			for p := 0; p < t.n; p++ {
				l := t.revLine(s, p)
				srv, q := &c.mmSrv[l], c.mmOut[l]
				if s < t.stages {
					srv, q = &c.rsrv[s][l], c.rq[s][l]
				}
				check("reverse link", act.rev[s][c.base+p], !srv.active && q.empty())
			}
		}
		for sw := 0; sw < t.group; sw++ {
			valid := 0
			for s := 0; s < t.stages; s++ {
				if c.revDefer[s][sw].valid {
					valid++
				}
			}
			if got := int(act.deferred[c.dbase+sw]); got != valid {
				h.t.Fatalf("cycle %d: copy %d switch column %d counts %d deferred replies, holds %d",
					h.cycle, ci, sw, got, valid)
			}
		}
	}
	inFlight := n.InFlight()
	if set > msg.PacketsWithData*inFlight {
		h.t.Fatalf("cycle %d: %d link flags set for %d messages in flight", h.cycle, set, inFlight)
	}
	for _, c := range n.copies {
		for port := 0; port < c.topo.n; port++ {
			check("MM arrival queue", act.mm[c.base+port], c.mmIn[port].empty())
			check("PE receive buffer", act.pe[c.base+port], len(c.peRecv[port]) == 0)
		}
	}
	if inFlight == 0 && set != 0 {
		h.t.Fatalf("cycle %d: %d activity flags set on a drained network", h.cycle, set)
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

// TestSweepVisitsExactlyFlaggedUnits checks the word-at-a-time scan
// against the obvious one for unit widths that do and do not divide
// eight, over ranges that start and end off a word boundary.
func TestSweepVisitsExactlyFlaggedUnits(t *testing.T) {
	for _, per := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
		const units = 41
		flags := make([]uint8, units*per)
		for i := range flags {
			if i%7 == 3 || i%29 == 0 {
				flags[i] = 1
			}
		}
		// A long idle stretch in the middle.
		for i := 10 * per; i < 30*per; i++ {
			flags[i] = 0
		}
		var got []int
		st := &Stepper{group: units, phaseFlags: flags, phasePer: per}
		st.phaseRun = func(ci, sw int, _ *sink) { got = append(got, ci*units+sw) }
		for _, r := range [][2]int{{0, units}, {3, 38}, {12, 13}, {5, 5}} {
			got = got[:0]
			st.sweep(r[0], r[1], &sink{})
			var want []int
			for u := r[0]; u < r[1]; u++ {
				for _, f := range flags[u*per : (u+1)*per] {
					if f != 0 {
						want = append(want, u)
						break
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("per=%d range %v: visited %v, want %v", per, r, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("per=%d range %v: visited %v, want %v", per, r, got, want)
				}
			}
		}
	}
}
