package network

import "ultracomputer/internal/msg"

// SystolicQueue is a cycle-accurate model of the enhanced Guibas–Liang
// VLSI systolic queue of §3.3.1 (Figure 4), the hardware realization of
// the ToMM queue used by the switch model in this package.
//
// Items enter the middle column at the bottom. Each cycle an item in the
// middle column moves into the adjacent right-column slot if that slot is
// empty; otherwise it moves up one position and retries. Items in the
// right column shift down, exiting at the bottom (one per cycle).
// Comparators between the right two columns match a new entry moving up
// the middle against previous entries moving down the right; on a match
// the new entry moves to the left "match column", which shifts down in
// lockstep with the right column so that a matched pair exits both
// columns simultaneously into the combining unit.
//
// Since middle items rise while right items fall, a single comparator per
// slot would check only every other passing entry (the paper's footnote);
// like the paper's "twice as many comparators" option, each middle item
// is compared against both adjacent right slots.
type SystolicQueue struct {
	height int
	middle []sysSlot
	right  []sysSlot
	match  []sysSlot
}

type sysSlot struct {
	req   msg.Request
	valid bool
}

// SystolicOutput is what exits the queue in one cycle: a request, and,
// when Pair is true, a second request that the combining unit merges with
// it (the pair reached the bottom of the right and match columns
// together).
type SystolicOutput struct {
	Req     msg.Request
	Partner msg.Request
	Pair    bool
}

// NewSystolicQueue returns a queue with the given number of slots per
// column.
func NewSystolicQueue(height int) *SystolicQueue {
	if height < 1 {
		height = 1
	}
	return &SystolicQueue{
		height: height,
		middle: make([]sysSlot, height),
		right:  make([]sysSlot, height),
		match:  make([]sysSlot, height),
	}
}

// Len reports the number of items currently held in all three columns.
func (s *SystolicQueue) Len() int {
	n := 0
	for i := 0; i < s.height; i++ {
		if s.middle[i].valid {
			n++
		}
		if s.right[i].valid {
			n++
		}
		if s.match[i].valid {
			n++
		}
	}
	return n
}

// Full reports whether an insertion this cycle would be refused.
func (s *SystolicQueue) Full() bool { return s.middle[0].valid }

// Step advances the queue one cycle. If in is non-nil it is offered for
// insertion; accepted reports whether it was taken (the queue is full
// when an item occupies the bottom of the middle column and cannot
// advance). If the next switch can receive an item this cycle (canExit),
// the bottom of the right column exits, paired with the bottom of the
// match column when a combination is ready.
func (s *SystolicQueue) Step(in *msg.Request, canExit bool) (out SystolicOutput, exited, accepted bool) {
	// 1. Exit from the bottom of the right (and match) columns.
	if canExit && s.right[0].valid {
		out.Req = s.right[0].req
		if s.match[0].valid {
			out.Partner = s.match[0].req
			out.Pair = true
		}
		s.right[0] = sysSlot{}
		s.match[0] = sysSlot{}
		exited = true
	}

	// 2. Right and match columns shift down where the slot below is free.
	// The match column moves in lockstep with the right column so a
	// matched pair stays aligned.
	for i := 1; i < s.height; i++ {
		if s.right[i].valid && !s.right[i-1].valid && !s.match[i-1].valid {
			s.right[i-1] = s.right[i]
			s.right[i] = sysSlot{}
			if s.match[i].valid {
				s.match[i-1] = s.match[i]
				s.match[i] = sysSlot{}
			}
		}
	}

	// 3. Middle column: each item first tries the comparators (matching
	// either adjacent right slot); failing that, the topmost (oldest)
	// climber may land in the right column above the stack top — only
	// the oldest lands, which keeps the right column age-ordered from
	// the bottom and so preserves FIFO order; everything else climbs.
	topmost, stackTop := -1, -1
	for i := s.height - 1; i >= 0; i-- {
		if topmost < 0 && s.middle[i].valid {
			topmost = i
		}
		if stackTop < 0 && s.right[i].valid {
			stackTop = i
		}
	}
	for i := topmost; i >= 0; i-- {
		if !s.middle[i].valid {
			continue
		}
		it := s.middle[i].req
		if j, ok := s.matchAt(i, it); ok {
			s.match[j] = sysSlot{req: it, valid: true}
			s.right[j].req = markCombined(s.right[j].req)
			s.middle[i] = sysSlot{}
			continue
		}
		if i == topmost && i > stackTop {
			s.right[i] = sysSlot{req: it, valid: true}
			s.middle[i] = sysSlot{}
			continue
		}
		if i+1 < s.height && !s.middle[i+1].valid {
			s.middle[i+1] = sysSlot{req: it, valid: true}
			s.middle[i] = sysSlot{}
		}
	}

	// 4. Insertion at the bottom of the middle column, with the
	// insertion-time comparator ("merge an incoming request with
	// requests already queued for output", §3.1.2).
	if in != nil {
		if j, ok := s.matchAt(0, *in); ok {
			s.match[j] = sysSlot{req: *in, valid: true}
			s.right[j].req = markCombined(s.right[j].req)
			accepted = true
		} else if !s.middle[0].valid {
			s.middle[0] = sysSlot{req: *in, valid: true}
			accepted = true
		}
	}
	return out, exited, accepted
}

// matchAt looks for a combinable right-column partner for it adjacent to
// middle position i (slots i and i+1, covering both relative phases). A
// right entry that already has a match-column partner is skipped —
// pairwise combination only — which we detect by the slot being marked.
func (s *SystolicQueue) matchAt(i int, it msg.Request) (int, bool) {
	for j := i; j <= i+1 && j < s.height; j++ {
		if r := &s.right[j]; r.valid && !s.match[j].valid && !isCombinedMark(r.req) &&
			r.req.Addr == it.Addr && msg.Combinable(r.req.Op, it.Op) {
			return j, true
		}
	}
	return 0, false
}

// The systolic model marks a right-column entry that has acquired a
// partner by flagging the high bit of its ID; the mark is stripped on
// exit. (The abstract reqQueue keeps the mark as its wait buffer's record
// keyed by the entry's ID instead.)
const combinedMark = uint64(1) << 63

func markCombined(r msg.Request) msg.Request {
	r.ID |= combinedMark
	return r
}

func isCombinedMark(r msg.Request) bool { return r.ID&combinedMark != 0 }

// StripMark removes the pairing mark from a request that exited the
// queue, restoring its original ID.
func StripMark(r msg.Request) msg.Request {
	r.ID &^= combinedMark
	return r
}
