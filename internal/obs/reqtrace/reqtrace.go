// Package reqtrace implements span-based causal tracing for individual
// memory requests: the per-request view the aggregate telemetry of
// internal/obs cannot give. A sampled request carries a compact trace
// context (msg.TraceCtx) from PE issue through every switch stage to the
// memory module and back; every hop-record site in the network and
// memory layers addresses its event to the tracer (obs.Subs.For), and
// the Tracer assembles the events into Span timelines — per-hop
// enqueue/dequeue cycles, wait-buffer residency, and the combining
// genealogy of §3.3
// (a child span links to the parent that absorbed it; decombining on the
// return path closes the tree).
//
// Sampling is a pure seeded hash of the request ID, so the decision needs
// no shared state and runs of the same seed trace exactly the same
// requests. Events arrive in the simulator's deterministic emission
// order (see network.Stepper), so span dumps of the same seeded run are
// byte-identical.
//
// The Tracer doubles as a flight recorder: a bounded ring of the last
// completed spans plus a reservoir of slow outliers, dumped when the
// live conformance monitor fires an alert (obs/live.Feed) or on demand
// over HTTP (/trace/flight).
package reqtrace

import (
	"math"
	"sync"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Config parameterizes a Tracer.
type Config struct {
	// Rate is the per-request sampling probability: 1 traces everything,
	// 0 traces nothing (the tracer still costs one compare per hop).
	Rate float64
	// Seed drives the sampling hash and the slow-outlier reservoir
	// (default 1). Runs with equal seeds trace identical request sets.
	Seed uint64
	// Ring bounds the flight recorder's ring of completed spans
	// (default 1024).
	Ring int
}

// The flight recorder's slow-outlier policy.
const (
	// DefaultSlowCap bounds the slow-outlier reservoir.
	DefaultSlowCap = 64
	// DefaultSlowFactor marks a completion slow when its latency
	// exceeds this multiple of the running mean latency.
	DefaultSlowFactor = 3
	// DefaultMinSlowSamples is how many completions seed the running
	// mean before outlier detection starts.
	DefaultMinSlowSamples = 32
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ring <= 0 {
		c.Ring = 1024
	}
	return c
}

// Tracer assembles the events addressed to it into request spans and
// keeps the flight recorder. It implements obs.Probe, as the SubTrace
// consumer of the network's and the bank's fan-out, and the sampling
// decision for the PNIs.
//
// All events of one run arrive on the simulating goroutine, so the
// active table and the spans under assembly are the emitter's own and
// need no lock. mu guards what a concurrent HTTP export can see — the
// completed spans and the counters — and the emitter takes it once when
// it opens a span and once when it completes one, not per event.
//
// A completed span is held by the flight ring and, if it is an outlier,
// by the slow reservoir. When its last hold goes it is put on the free
// list, and the next span to open reuses it: struct, Hops and Children
// backing arrays. Nothing handed to a caller aliases that storage (see
// copySpans). Spans, and their hop room, are made spanChunk spans at a
// time (see fresh). A span made fresh gets
// room for the longest trip completed so far, and before the first
// completion for the uncombined trip its driver announces (ExpectTrip):
// the hop count is a property of the machine being traced, so it is
// learned, not configured.
//
//lockcheck:guards mu: ring, head, n, slow, slowSeen, rng, free, spanPool, hopPool, hopCap, made, opened, completed, combineLinks, dropped, latN, latMean
type Tracer struct {
	cfg  Config
	all  bool   // Rate >= 1: trace everything
	thr  uint64 // sampling cutoff on the 64-bit hash
	seed uint64

	// active holds the spans under assembly; emitter-only.
	active sim.Table[*Span]

	mu sync.Mutex
	// ring is the circular flight-recorder buffer of completed spans in
	// completion order; head indexes the oldest.
	ring     []*Span
	head     int
	n        int
	slow     []*Span
	slowSeen int64
	rng      *sim.Rand
	free     []*Span // released spans awaiting reuse
	spanPool []Span  // the newest chunk's spans not yet handed out
	hopPool  []Hop   // the newest hop chunk's room not yet handed out
	hopCap   int     // most hops any completed span recorded, or ExpectTrip's room
	made     int     // spans allocated, in the free list or not

	opened       int64
	completed    int64
	combineLinks int64
	dropped      int64
	latN         int64
	latMean      float64
}

// New builds a tracer. The zero Config samples nothing but still
// records adopted combine partners of explicitly traced requests.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{
		cfg:  cfg,
		seed: cfg.Seed,
		ring: make([]*Span, cfg.Ring),
		slow: make([]*Span, 0, DefaultSlowCap),
		rng:  sim.NewRand(cfg.Seed ^ 0x5ca1ab1e),
	}
	t.active.Reserve(0)
	switch {
	case cfg.Rate >= 1:
		t.all = true
	case cfg.Rate > 0:
		t.thr = uint64(cfg.Rate * float64(math.MaxUint64))
	}
	return t
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ContextFor decides at issue time whether request id is traced,
// returning the context it must carry. The decision is a pure hash of
// (id, seed): no state, so equal-seed runs sample identical requests
// whatever the timing.
func (t *Tracer) ContextFor(id uint64) msg.TraceCtx {
	if t.all {
		return msg.TraceCtx{Sampled: true}
	}
	if t.thr == 0 || splitmix64(id^t.seed) >= t.thr {
		return msg.TraceCtx{}
	}
	return msg.TraceCtx{Sampled: true}
}

// Rate reports the configured sampling rate.
func (t *Tracer) Rate() float64 { return t.cfg.Rate }

// Emit assembles one event into its span. It implements obs.Probe; the
// machine's hop-record sites address an event here only when its
// carrier has a non-zero TraceCtx.
func (t *Tracer) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindInject:
		s := t.open(ev.ID, int(ev.PE), ev.Op.String(), ev.Addr, ev.Cycle)
		s.Hops = append(s.Hops, Hop{Kind: HopInject, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: -1})
	case obs.KindStageArrive:
		t.hop(ev.ID, Hop{Kind: HopEnqueue, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Q: ev.Aux})
	case obs.KindStageDepart:
		t.hop(ev.ID, Hop{Kind: HopDequeue, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1})
	case obs.KindCombine:
		// ev.ID is the absorbed child, ev.ID2 the surviving parent;
		// ev.Aux carries the parent's PE for mid-flight adoption.
		child := t.spanOrAdopt(ev.ID, int(ev.PE), ev.Op.String(), ev.Addr, ev.Cycle)
		parent := t.spanOrAdopt(ev.ID2, int(ev.Aux), "", ev.Addr, ev.Cycle)
		child.Parent = ev.ID2
		child.waitStart = ev.Cycle
		child.Hops = append(child.Hops, Hop{Kind: HopCombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID2})
		parent.Children = append(parent.Children, ev.ID)
		parent.Hops = append(parent.Hops, Hop{Kind: HopCombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID})
		t.mu.Lock()
		t.combineLinks++
		t.mu.Unlock()
	case obs.KindDecombine:
		// ev.ID keys the wait-buffer record (the parent); ev.ID2 is the
		// recreated child reply.
		if p := t.active.Get(ev.ID); p != nil {
			p.Hops = append(p.Hops, Hop{Kind: HopDecombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID2})
		}
		if c := t.active.Get(ev.ID2); c != nil {
			c.Hops = append(c.Hops, Hop{Kind: HopDecombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID})
			c.WaitCycles = ev.Cycle - c.waitStart
		}
	case obs.KindMMArrive:
		t.hop(ev.ID, Hop{Kind: HopMMArrive, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: ev.MM})
	case obs.KindMNIBegin:
		s := t.hop(ev.ID, Hop{Kind: HopMNIBegin, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: ev.MM})
		if s != nil && s.Op == "" {
			s.Op = ev.Op.String()
		}
	case obs.KindMNIServe:
		s := t.hop(ev.ID, Hop{Kind: HopMNIServe, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: ev.MM})
		if s != nil && s.Op == "" {
			s.Op = ev.Op.String()
		}
	case obs.KindReplyHop:
		if ev.MM >= 0 {
			t.hop(ev.ID, Hop{Kind: HopReplyOut, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: ev.MM})
		} else {
			t.hop(ev.ID, Hop{Kind: HopReplyHop, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1})
		}
	case obs.KindReplyDepart:
		t.hop(ev.ID, Hop{Kind: HopReplyDepart, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: ev.MM})
	case obs.KindReplyDeliver:
		s := t.hop(ev.ID, Hop{Kind: HopDeliver, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: -1})
		if s == nil {
			return
		}
		s.Value = ev.Value
		t.complete(s, ev.Cycle)
	default:
		t.drop()
	}
}

// drop counts an event that matched no open span.
func (t *Tracer) drop() {
	t.mu.Lock()
	t.dropped++
	t.mu.Unlock()
}

// hop appends h to the active span id, returning the span (nil and a
// dropped count when the id is unknown — an event for a request whose
// span already closed or was never opened).
func (t *Tracer) hop(id uint64, h Hop) *Span {
	s := t.active.Get(id)
	if s == nil {
		t.drop()
		return nil
	}
	s.Hops = append(s.Hops, h)
	return s
}

// open starts the span of request id in the active set, on recycled
// storage when the free list has any. It runs only for sampled requests
// (hop sites emit only on a non-zero TraceCtx), off the untraced steady
// state the zero-alloc contract pins, and allocates only until the free
// list has caught up with the requests in flight.
func (t *Tracer) open(id uint64, pe int, op string, addr msg.Addr, cycle int64) *Span {
	t.mu.Lock()
	t.opened++
	var s *Span
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		//ultravet:ok hotalloc warm-up of the sampled-request path; steady state reuses the free list
		s = t.fresh()
	}
	t.mu.Unlock()
	*s = Span{
		ID: id, PE: pe, Op: op, MM: addr.MM, Word: addr.Word, Issued: cycle,
		Hops: s.Hops[:0], Children: s.Children[:0],
	}
	t.active.Put(id, s)
	return s
}

// spanChunk is how many spans one allocation makes, and how many spans'
// hop room one hop allocation makes.
const spanChunk = 64

// fresh makes a span with room for hopCap hops, and reserves room in the
// active table for twice the spans made. Spans under assembly never
// outnumber spans made, so the table is never more than half full, and
// it grows here, with the spans, and nowhere on the steady state's path.
// The span is carved from a chunk of spanChunk spans, its Hops from a
// chunk of spanChunk·hopCap hops. Hops is a full slice expression: an
// append past its room reallocates instead of reaching the next span's
// window. Callers hold mu.
func (t *Tracer) fresh() *Span {
	t.made++
	t.active.Reserve(2 * t.made)
	if len(t.spanPool) == 0 {
		t.spanPool = make([]Span, spanChunk)
	}
	if len(t.hopPool) < t.hopCap {
		t.hopPool = make([]Hop, spanChunk*t.hopCap)
	}
	s := &t.spanPool[0]
	t.spanPool = t.spanPool[1:]
	s.Hops = t.hopPool[:0:t.hopCap]
	t.hopPool = t.hopPool[t.hopCap:]
	return s
}

// ExpectTrip gives every span made from now on room for at least an
// uncombined trip through a network of the given number of stages:
// inject, PNI departure, an arrival and a departure at each stage, the
// module's arrival, service begin and end, its reply out and departure,
// a reply hop and departure at each stage, and delivery — 4·stages + 8
// hops. The driver that knows the network calls it before the run;
// learning from completions still raises the room past it.
func (t *Tracer) ExpectTrip(stages int) {
	t.mu.Lock()
	t.hopCap = max(t.hopCap, 4*stages+8)
	t.mu.Unlock()
}

// spanOrAdopt returns the active span for id, opening an adopted span if
// the request was not sampled at issue: combining genealogy is recorded
// completely whenever either party of a combine is traced, so a traced
// child's parent (and vice versa) enters the tree mid-flight.
func (t *Tracer) spanOrAdopt(id uint64, pe int, op string, addr msg.Addr, cycle int64) *Span {
	if s := t.active.Get(id); s != nil {
		return s
	}
	s := t.open(id, pe, op, addr, cycle)
	s.Adopted = true
	return s
}

// release drops one of the tracer's holds on a completed span; the last
// one recycles it. Callers hold mu.
func (t *Tracer) release(s *Span) {
	if s.refs--; s.refs == 0 {
		t.free = append(t.free, s)
	}
}

// complete closes a span: it leaves the active set, enters the flight
// ring, and — when its latency is an outlier against the running mean of
// completions before it — the slow reservoir. Completion order is the
// deterministic reply-delivery drain order, and the reservoir's
// replacement choices come from a seeded generator consumed only here,
// so the flight recorder's contents are reproducible too.
func (t *Tracer) complete(s *Span, cycle int64) {
	t.active.Del(s.ID)
	s.Done = cycle
	s.Latency = cycle - s.Issued

	t.mu.Lock()
	defer t.mu.Unlock()
	t.completed++
	if len(s.Hops) > t.hopCap {
		t.hopCap = len(s.Hops)
	}

	lat := float64(s.Latency)
	if t.latN >= DefaultMinSlowSamples && lat > DefaultSlowFactor*t.latMean {
		s.Slow = true
		t.slowSeen++
		if len(t.slow) < DefaultSlowCap {
			t.slow = append(t.slow, s)
			s.refs++
		} else if j := t.rng.Intn(int(t.slowSeen)); j < DefaultSlowCap {
			t.release(t.slow[j])
			t.slow[j] = s
			s.refs++
		}
	}
	t.latN++
	t.latMean += (lat - t.latMean) / float64(t.latN)

	s.refs++
	if t.n < len(t.ring) {
		t.ring[t.ringIndex(t.n)] = s
		t.n++
	} else {
		t.release(t.ring[t.head])
		t.ring[t.head] = s
		t.head = t.ringIndex(1)
	}
}

// ringIndex is the ring slot i places after the oldest, 0 <= i <=
// len(ring). Callers hold mu.
func (t *Tracer) ringIndex(i int) int {
	if i += t.head; i >= len(t.ring) {
		i -= len(t.ring)
	}
	return i
}

// Completed reports the number of spans closed so far.
func (t *Tracer) Completed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// Active reports the number of spans still in flight.
func (t *Tracer) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.opened - t.completed)
}

// CombineLinks reports how many parent←child genealogy links have been
// recorded — on a combining hot spot this grows with the combining tree;
// with combining off it stays zero.
func (t *Tracer) CombineLinks() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.combineLinks
}

// Dropped reports trace events that matched no active span.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// MeanLatency reports the running mean latency of completed spans.
func (t *Tracer) MeanLatency() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latMean
}

// ringSpans lists the flight ring oldest-first. Callers hold mu.
func (t *Tracer) ringSpans() []*Span {
	out := make([]*Span, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[t.ringIndex(i)])
	}
	return out
}

// copySpans replaces every span of list with a deep copy in storage cut
// from three arrays made here — spans, hops, children — so that what a
// caller holds is its own: the tracer recycles the originals. Callers
// hold mu; list is theirs to overwrite.
func copySpans(list []*Span) []*Span {
	var nh, nc int
	for _, s := range list {
		nh += len(s.Hops)
		nc += len(s.Children)
	}
	spans := make([]Span, len(list))
	hops := make([]Hop, 0, nh)
	kids := make([]uint64, 0, nc)
	for i, s := range list {
		c := &spans[i]
		*c = *s
		c.waitStart, c.refs = 0, 0
		// Full slice expressions: a caller's append cannot reach the
		// next span's share.
		hops = append(hops, s.Hops...)
		c.Hops = hops[len(hops)-len(s.Hops) : len(hops) : len(hops)]
		c.Children = nil
		if len(s.Children) > 0 {
			kids = append(kids, s.Children...)
			c.Children = kids[len(kids)-len(s.Children) : len(kids) : len(kids)]
		}
		list[i] = c
	}
	return list
}

// Spans snapshots the flight ring (completed spans, oldest first). The
// result is the caller's own copy.
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return copySpans(t.ringSpans())
}

// SlowSpans snapshots the slow-outlier reservoir in capture order. The
// result is the caller's own copy.
func (t *Tracer) SlowSpans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return copySpans(append([]*Span(nil), t.slow...))
}
