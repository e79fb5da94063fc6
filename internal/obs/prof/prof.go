// Package prof is the guest-program profiler (`ultraprof`): a
// sampling-free, cycle-exact profiler for programs running on the
// simulated machine. It is an obs.Probe: the PE, network and memory hot
// paths feed it through the one instrumentation channel — one mask test
// per site when detached, zero allocations — and it attributes every
// cycle of every PE to the guest PC that was current when the cycle
// elapsed, bucketed into the states of obs.ProfState: execute,
// cache-hit, memory-wait, net-full-stall, spin and halted.
//
// Spin detection is retroactive: cycles are buffered per PE until the
// next value-returning reply; when the same instruction re-observes an
// unchanged shared word, the buffered cycles are reclassified as spin —
// which is exactly the busy-wait pattern of test-and-set loops the
// paper's fetch-and-add coordination is designed to avoid.
//
// Besides per-PC flat/cumulative cycle counts (with label-span function
// rollup and source-line mapping via isa.Program), the profiler keeps a
// per-shared-address contention heatmap — accesses, combines, MM serves
// and wait cycles per word, a software-visible view of the paper's §4.1
// hot-spot model — and per-lock wait-time histograms keyed by the F&A
// cell address.
//
// Determinism contract: every event arrives inline on the simulating
// goroutine (obs.Fanout), in emission order, and every exported
// collection is sorted: profiles of the same seeded run are
// byte-identical. The one direct caller, the synthetic driver's
// ProfIssue, runs on the same goroutine.
package prof

import (
	"math"
	"sync/atomic"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Config describes the guest being profiled.
type Config struct {
	// PEs is the number of processing elements (required).
	PEs int
	// Programs holds the guest program(s): nil (no pc attribution,
	// e.g. GoCore guests), length 1 (SPMD — every PE runs the same
	// program), or length PEs. Symbolization (labels, lines) uses the
	// first program.
	Programs []*isa.Program
	// File names the guest source file in exported profiles ("guest"
	// when empty).
	File string
	// Source is the raw assembly text, carried into the JSONL export so
	// `tables -prof` can render annotated source without the .s file.
	Source string
}

// maxPending bounds the per-PE run buffer awaiting a spin verdict; on
// overflow the oldest runs are flushed unreclassified.
const maxPending = 4096

// runEntry is a coalesced run of identical-attribution cycles.
type runEntry struct {
	node  int32 // call-stack node (index into peShard.nodes)
	pc    int32
	state obs.ProfState
	count int64
}

type runAggKey struct {
	pe    int32
	node  int32
	pc    int32
	state obs.ProfState
}

// nodeKey names a PE's call path parent -> (call at callpc).
type nodeKey struct {
	pe     int32
	parent int32
	callpc int32
}

// stackNode interns one call path: the chain of JAL sites from the root.
type stackNode struct {
	parent int32
	callpc int32 // pc of the JAL that opened this frame
}

type frame struct {
	node  int32
	retpc int32
}

type spinKey struct {
	pe   int32
	pc   int32
	addr int64
}

// wordRec is one shared word's heatmap record, kept by value in the
// heatmap: every fact about the word lands here once.
type wordRec struct {
	addr     int64 // linear guest address, -1 until a PE touches the word
	accesses int64 // requests issued to the word
	rmw      int64 // of which fetch-and-phi / swap
	waits    int64 // summed issue-to-reply cycles
	served   int64 // MM serves of (possibly combined) requests
	combines int64 // network combines of two requests to the word
}

// peShard is one PE's open run, buffered runs and call stack. What a
// PE's runs add up to, its interned call paths and its spin memory live
// in the profiler's maps, keyed by PE.
type peShard struct {
	prog    *isa.Program
	cur     runEntry // open run (count==0: none)
	pending []runEntry
	nodes   []stackNode
	stack   []frame
	curNode int32
}

// Profiler is the obs.Probe a machine subscribes as obs.SubProf.
//
// Every map is made once in New and keyed by PE or by word, so New costs
// the same objects at any PE count, and no cycle's path makes a map.
type Profiler struct {
	cfg     Config
	pes     []peShard
	agg     map[runAggKey]int64      // committed cycles by (PE, node, pc, state)
	nodeIdx map[nodeKey]int32        // interned call paths, by PE
	lastVal map[spinKey]int64        // last value each (PE, pc, address) saw
	words   map[uint64]wordRec       // the heatmap, by mm<<32 | word
	mms     int                      // modules the heatmap takes; set by SetMMs
	locks   map[int64]*sim.Histogram // F&A wait times, by linear address
	paths   []CriticalPath

	// live is the pre-rendered /prof export, swapped in whole; like
	// live.Server.cur it is atomic-only state with no guarding mutex,
	// so lockcheck's mixed plain/atomic rule is the relevant watchdog.
	liveOn bool
	live   atomic.Pointer[[]byte]
}

// New builds a profiler for cfg.
func New(cfg Config) *Profiler {
	if cfg.PEs < 1 {
		cfg.PEs = 1
	}
	p := &Profiler{
		cfg: cfg, pes: make([]peShard, cfg.PEs),
		agg: make(map[runAggKey]int64), nodeIdx: make(map[nodeKey]int32), lastVal: make(map[spinKey]int64),
		words: make(map[uint64]wordRec), locks: make(map[int64]*sim.Histogram),
	}
	// Every PE's root node, carved from one array; a PE's first call
	// reallocates its own nodes.
	roots := make([]stackNode, cfg.PEs)
	for i := range p.pes {
		s := &p.pes[i]
		s.prog = p.progFor(i)
		roots[i] = stackNode{parent: -1, callpc: -1}
		s.nodes = roots[i : i+1 : i+1]
	}
	return p
}

func (p *Profiler) progFor(pe int) *isa.Program {
	switch {
	case len(p.cfg.Programs) == 0:
		return nil
	case len(p.cfg.Programs) == 1:
		return p.cfg.Programs[0]
	case pe < len(p.cfg.Programs):
		return p.cfg.Programs[pe]
	}
	return nil
}

// Enabled reports whether there is a profiler to wire: off is nil.
func (p *Profiler) Enabled() bool { return p != nil }

// SetMMs bounds the heatmap to n memory modules. Every driver calls it
// with its module count before the run; an event at a module beyond the
// bound is dropped.
func (p *Profiler) SetMMs(n int) { p.mms = max(p.mms, n) }

// NetShard returns the profiler as the network's probe. It is kept only
// for the benchmark driver, which subscribes the network through it.
func (p *Profiler) NetShard(int) obs.Probe { return p }

// word returns the heatmap key and record of a, a fresh record (guest
// address unknown) when a is untouched. The key is mm<<32 | word, so the
// sorted keys list the heatmap module by module, each module's words in
// order. ok is false at a module beyond SetMMs's bound and at a word
// outside [0, 2^32) (MultHash keeps the whole guest address as the
// word): the heatmap drops both.
func (p *Profiler) word(a msg.Addr) (k uint64, r wordRec, ok bool) {
	if a.MM < 0 || a.MM >= p.mms || uint64(a.Word) > math.MaxUint32 { // a negative word too
		return 0, r, false
	}
	k = uint64(a.MM)<<32 | uint64(a.Word)
	if r, ok = p.words[k]; !ok {
		r.addr = -1
	}
	return k, r, true
}

// AddCriticalPaths attaches extracted critical paths (see
// CriticalPaths) so they ride along in the JSONL export.
func (p *Profiler) AddCriticalPaths(cp []CriticalPath) { p.paths = append(p.paths, cp...) }

// Emit implements obs.Probe: it dispatches the five kinds addressed to
// obs.SubProf (see the obs package documentation for their fields).
func (p *Profiler) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindProfCycle:
		p.ProfCycle(int(ev.PE), int(ev.Aux), obs.ProfState(ev.Value))
	case obs.KindProfIssue:
		p.ProfIssue(int(ev.PE), int(ev.Aux), ev.Op, ev.Value, ev.Addr)
	case obs.KindProfDeliver:
		p.ProfDeliver(int(ev.PE), int(ev.Aux), ev.Op, ev.Value, ev.Addr, int64(ev.ID), int64(ev.ID2))
	case obs.KindMNIServe:
		p.ProfServe(int(ev.MM), ev.Addr.Word, ev.Op)
	case obs.KindCombine:
		if k, r, ok := p.word(ev.Addr); ok {
			r.combines++
			p.words[k] = r
		}
	}
}

// ProfCycle attributes one elapsed PE cycle to the guest pc that was
// current when the cycle began, classified coarsely; it refines
// ProfExecute into cache-hit and (retroactively) spin.
func (p *Profiler) ProfCycle(pe, pc int, state obs.ProfState) {
	s := &p.pes[pe]
	var op isa.Op = isa.NOP
	known := s.prog != nil && pc >= 0 && pc < len(s.prog.Instrs)
	if known {
		op = s.prog.Instrs[pc].Op
	}
	if state == obs.ProfExecute && op.Class() == isa.ClassCached {
		// A retiring cached access was satisfied by the write-back cache
		// (a miss burns memory-wait cycles first, then retires as a hit).
		state = obs.ProfCacheHit
	}
	// Any cycle spent at the caller's resume pc closes the callee frame.
	for len(s.stack) > 0 && int32(pc) == s.stack[len(s.stack)-1].retpc {
		s.stack = s.stack[:len(s.stack)-1]
		if n := len(s.stack); n > 0 {
			s.curNode = s.stack[n-1].node
		} else {
			s.curNode = 0
		}
	}
	if s.cur.count > 0 && s.cur.node == s.curNode && s.cur.pc == int32(pc) && s.cur.state == state {
		s.cur.count++
	} else {
		p.closeRun(pe)
		s.cur = runEntry{node: s.curNode, pc: int32(pc), state: state, count: 1}
	}
	if state == obs.ProfExecute && op == isa.JAL && len(s.stack) < 256 {
		// The JAL cycle belongs to the caller; subsequent cycles to the
		// callee frame, until a cycle lands on the return pc.
		s.stack = append(s.stack, frame{node: p.childNode(pe, pc), retpc: int32(pc + 1)})
		s.curNode = s.stack[len(s.stack)-1].node
	}
}

// childNode interns PE pe's call path curNode -> (call at pc).
func (p *Profiler) childNode(pe, pc int) int32 {
	s := &p.pes[pe]
	key := nodeKey{pe: int32(pe), parent: s.curNode, callpc: int32(pc)}
	if id, ok := p.nodeIdx[key]; ok {
		return id
	}
	id := int32(len(s.nodes))
	s.nodes = append(s.nodes, stackNode{parent: s.curNode, callpc: int32(pc)})
	p.nodeIdx[key] = id
	return id
}

// closeRun buffers PE pe's open run to await its spin verdict.
func (p *Profiler) closeRun(pe int) {
	s := &p.pes[pe]
	if s.cur.count == 0 {
		return
	}
	if len(s.pending) >= maxPending {
		p.drainPending(pe, false)
	}
	s.pending = append(s.pending, s.cur)
	s.cur = runEntry{}
}

// drainPending commits PE pe's buffered runs; with spin=true,
// busy-wait-able states are reclassified (net-full and halted keep their
// identity).
func (p *Profiler) drainPending(pe int, spin bool) {
	s := &p.pes[pe]
	for _, r := range s.pending {
		st := r.state
		if spin && (st == obs.ProfExecute || st == obs.ProfCacheHit || st == obs.ProfMemWait) {
			st = obs.ProfSpin
		}
		p.agg[runAggKey{pe: int32(pe), node: r.node, pc: r.pc, state: st}] += r.count
	}
	s.pending = s.pending[:0]
}

// ProfIssue records a shared request leaving PE pe: linear is the guest
// address, hashed its (module, word) translation.
func (p *Profiler) ProfIssue(pe, pc int, op msg.Op, linear int64, hashed msg.Addr) {
	k, r, ok := p.word(hashed)
	if !ok {
		return
	}
	r.addr = linear
	r.accesses++
	if op != msg.Load && op != msg.Store {
		r.rmw++
	}
	p.words[k] = r
}

// ProfDeliver records a reply reaching PE pe: pc is the instruction
// that issued the request to linear, hashed its (module, word), wait the
// issue-to-complete time in PE cycles.
// This is where the spin verdict lands: a value-returning op at the same
// pc re-observing an unchanged word marks the cycles since the previous
// observation as spin.
func (p *Profiler) ProfDeliver(pe, pc int, op msg.Op, linear int64, hashed msg.Addr, value int64, wait int64) {
	if k, r, ok := p.word(hashed); ok {
		r.waits += wait
		p.words[k] = r
	}
	if op != msg.Load && op != msg.Store {
		h := p.locks[linear]
		if h == nil {
			h = sim.NewHistogram(1024)
			p.locks[linear] = h
		}
		h.Observe(wait)
	}
	if op.ReturnsValue() {
		k := spinKey{pe: int32(pe), pc: int32(pc), addr: linear}
		old, seen := p.lastVal[k]
		// Close the open run and commit everything buffered since the
		// previous value observation, spinning or not.
		p.closeRun(pe)
		p.drainPending(pe, seen && old == value)
		p.lastVal[k] = value
	}
}

// ProfServe records module mm serving one (possibly combined) request
// for word.
func (p *Profiler) ProfServe(mm, word int, op msg.Op) {
	if k, r, ok := p.word(msg.Addr{MM: mm, Word: word}); ok {
		r.served++
		p.words[k] = r
	}
}

// EnableLive turns on live publishing: Publish rebuilds the pprof bytes
// for the telemetry server's /profile endpoint. Off by default so the
// periodic sampling path stays cheap when nobody is serving.
func (p *Profiler) EnableLive() { p.liveOn = true }

// Publish rebuilds the live profile (no-op unless EnableLive was
// called). The machine invokes it on the sampling path, between
// cycles.
func (p *Profiler) Publish() {
	if !p.liveOn {
		return
	}
	b, err := p.PprofBytes()
	if err != nil {
		return
	}
	p.live.Store(&b)
}

// LiveProfile returns the most recently published pprof bytes (nil
// before the first Publish). Safe to call from HTTP handlers.
func (p *Profiler) LiveProfile() []byte {
	if b := p.live.Load(); b != nil {
		return *b
	}
	return nil
}

// callPath expands a node into its chain of call-site pcs, innermost
// first (pprof location order).
func (s *peShard) callPath(node int32, buf []int32) []int32 {
	buf = buf[:0]
	for n := node; n > 0; n = s.nodes[n].parent {
		buf = append(buf, s.nodes[n].callpc)
	}
	return buf
}
