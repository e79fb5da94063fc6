package pe

import (
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs/reqtrace"
)

// PNI is the processor-network interface (§3.4). Of its four functions —
// address translation, message assembly/disassembly, pipeline policy
// enforcement, and cache management — this type implements the first
// three; cache management lives with the core that owns the cache.
//
// Pipeline policy: a PE may have several outstanding requests (register
// locking lets it run ahead), but never more than one outstanding
// reference to the same memory location — the wait-buffer design requires
// each in-flight (PE, location) pair to be unique so a returning request
// matches at most one record (§3.3).
type PNI struct {
	pe   int
	hash memory.Hasher
	// inject offers a request from PE pe to the network; one function
	// serves every PE of a machine.
	inject         func(pe int, r msg.Request) bool
	maxOutstanding int

	seq uint32
	// pending holds the outstanding requests in no particular order: at
	// most maxOutstanding of them, so a scan beats two maps. It starts as
	// a window of pendingRoom slots or fewer carved from its machine's
	// slab (NewPEs); a PNI allowed more appends past its window into an
	// array of its own.
	pending []pendingReq

	// tracer, when non-nil, decides per request ID whether the request
	// carries a causal-tracing context. The decision is a pure function
	// of the ID, so same-seed runs sample identically.
	tracer *reqtrace.Tracer
}

type pendingReq struct {
	id       uint64
	tag      int
	addr     int64
	issuedAt int64
	pc       int // guest pc of the issuing instruction (profiler use)
}

// pendingRoom is how many outstanding requests a PNI holds before its
// list leaves its slab: the machine's default pipelining depth
// (machine.DefaultMaxOutstanding), 480 bytes a PE.
const pendingRoom = 12

// Outstanding reports the number of in-flight shared requests.
func (p *PNI) Outstanding() int { return len(p.pending) }

// canIssue applies the pipelining restrictions for a new request to addr.
func (p *PNI) canIssue(addr int64) bool {
	if len(p.pending) >= p.maxOutstanding {
		return false
	}
	for i := range p.pending {
		if p.pending[i].addr == addr {
			return false
		}
	}
	return true
}

// issue translates, tags and injects one request. It reports false when
// the pipelining rules refuse it or the network has no space.
func (p *PNI) issue(op msg.Op, addr int64, operand int64, tag int, cycle int64, pc int) bool {
	if !p.canIssue(addr) {
		return false
	}
	p.seq++
	id := uint64(p.pe)<<32 | uint64(p.seq)
	req := msg.Request{
		ID:      id,
		PE:      p.pe,
		Op:      op,
		Addr:    p.hash.Map(addr),
		Operand: operand,
	}
	if p.tracer != nil {
		req.TC = p.tracer.ContextFor(id)
	}
	if !p.inject(p.pe, req) {
		p.seq-- // ID not consumed
		return false
	}
	p.pending = append(p.pending, pendingReq{id: id, tag: tag, addr: addr, issuedAt: cycle, pc: pc})
	return true
}

// complete matches a reply to its outstanding request, returning the
// pending record (tag, linear address, issue cycle, issuing pc).
func (p *PNI) complete(rep msg.Reply) (pendingReq, bool) {
	for i := range p.pending {
		if p.pending[i].id == rep.ID {
			pr := p.pending[i]
			last := len(p.pending) - 1
			p.pending[i] = p.pending[last]
			p.pending = p.pending[:last]
			return pr, true
		}
	}
	return pendingReq{}, false
}
