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
	node  int32
	pc    int32
	state obs.ProfState
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
	pc   int32
	addr int64
}

// wordRec is one shared word's heatmap record, kept by value in its
// module's map: every fact about the word lands here once.
type wordRec struct {
	addr     int64 // linear guest address, -1 until a PE touches the word
	accesses int64 // requests issued to the word
	rmw      int64 // of which fetch-and-phi / swap
	waits    int64 // summed issue-to-reply cycles
	served   int64 // MM serves of (possibly combined) requests
	combines int64 // network combines of two requests to the word
}

// peShard is one PE's run, stack and spin state; hooks touch only the
// issuing PE's shard.
type peShard struct {
	prog    *isa.Program
	cur     runEntry // open run (count==0: none)
	pending []runEntry
	agg     map[runAggKey]int64
	nodes   []stackNode
	nodeIdx map[int64]int32 // parent<<32|callpc -> node index
	stack   []frame
	curNode int32
	lastVal map[spinKey]int64
}

// Profiler is the obs.Probe a machine subscribes as obs.SubProf.
type Profiler struct {
	cfg   Config
	pes   []peShard
	words []map[int]wordRec        // per module, by word; sized by SetMMs
	locks map[int64]*sim.Histogram // F&A wait times, by linear address
	paths []CriticalPath

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
	p := &Profiler{cfg: cfg, pes: make([]peShard, cfg.PEs), locks: make(map[int64]*sim.Histogram)}
	for i := range p.pes {
		s := &p.pes[i]
		s.prog = p.progFor(i)
		s.agg = make(map[runAggKey]int64)
		s.nodes = []stackNode{{parent: -1, callpc: -1}}
		s.nodeIdx = make(map[int64]int32)
		s.lastVal = make(map[spinKey]int64)
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

// SetMMs sizes the heatmap for n memory modules. Every driver calls it
// with its module count before the run; an event at a module beyond the
// sized range is dropped.
func (p *Profiler) SetMMs(n int) {
	for len(p.words) < n {
		p.words = append(p.words, make(map[int]wordRec))
	}
}

// NetShard returns the profiler as the network's probe. It is kept only
// for the benchmark driver, which subscribes the network through it.
func (p *Profiler) NetShard(int) obs.Probe { return p }

// word returns the heatmap record of a, a fresh one (guest address
// unknown) when a is untouched; ok is false at an unsized module.
func (p *Profiler) word(a msg.Addr) (r wordRec, ok bool) {
	if a.MM < 0 || a.MM >= len(p.words) {
		return r, false
	}
	if r, ok = p.words[a.MM][a.Word]; !ok {
		r.addr = -1
	}
	return r, true
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
		if r, ok := p.word(ev.Addr); ok {
			r.combines++
			p.words[ev.Addr.MM][ev.Addr.Word] = r
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
		s.closeRun()
		s.cur = runEntry{node: s.curNode, pc: int32(pc), state: state, count: 1}
	}
	if state == obs.ProfExecute && op == isa.JAL && len(s.stack) < 256 {
		// The JAL cycle belongs to the caller; subsequent cycles to the
		// callee frame, until a cycle lands on the return pc.
		s.stack = append(s.stack, frame{node: s.childNode(pc), retpc: int32(pc + 1)})
		s.curNode = s.stack[len(s.stack)-1].node
	}
}

// childNode interns the call path curNode -> (call at pc).
func (s *peShard) childNode(pc int) int32 {
	key := int64(s.curNode)<<32 | int64(int32(pc))
	if id, ok := s.nodeIdx[key]; ok {
		return id
	}
	id := int32(len(s.nodes))
	s.nodes = append(s.nodes, stackNode{parent: s.curNode, callpc: int32(pc)})
	s.nodeIdx[key] = id
	return id
}

func (s *peShard) closeRun() {
	if s.cur.count == 0 {
		return
	}
	if len(s.pending) >= maxPending {
		s.drainPending(false)
	}
	s.pending = append(s.pending, s.cur)
	s.cur = runEntry{}
}

// drainPending commits buffered runs; with spin=true, busy-wait-able
// states are reclassified (net-full and halted keep their identity).
func (s *peShard) drainPending(spin bool) {
	for _, r := range s.pending {
		st := r.state
		if spin && (st == obs.ProfExecute || st == obs.ProfCacheHit || st == obs.ProfMemWait) {
			st = obs.ProfSpin
		}
		s.agg[runAggKey{node: r.node, pc: r.pc, state: st}] += r.count
	}
	s.pending = s.pending[:0]
}

// verdict closes the open run and commits everything buffered since the
// previous value observation, spinning or not.
func (s *peShard) verdict(spin bool) {
	if s.cur.count > 0 {
		if len(s.pending) >= maxPending {
			s.drainPending(false)
		}
		s.pending = append(s.pending, s.cur)
		s.cur = runEntry{}
	}
	s.drainPending(spin)
}

// ProfIssue records a shared request leaving PE pe: linear is the guest
// address, hashed its (module, word) translation.
func (p *Profiler) ProfIssue(pe, pc int, op msg.Op, linear int64, hashed msg.Addr) {
	r, ok := p.word(hashed)
	if !ok {
		return
	}
	r.addr = linear
	r.accesses++
	if op != msg.Load && op != msg.Store {
		r.rmw++
	}
	p.words[hashed.MM][hashed.Word] = r
}

// ProfDeliver records a reply reaching PE pe: pc is the instruction
// that issued the request to linear, hashed its (module, word), wait the
// issue-to-complete time in PE cycles.
// This is where the spin verdict lands: a value-returning op at the same
// pc re-observing an unchanged word marks the cycles since the previous
// observation as spin.
func (p *Profiler) ProfDeliver(pe, pc int, op msg.Op, linear int64, hashed msg.Addr, value int64, wait int64) {
	if r, ok := p.word(hashed); ok {
		r.waits += wait
		p.words[hashed.MM][hashed.Word] = r
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
		s := &p.pes[pe]
		k := spinKey{pc: int32(pc), addr: linear}
		old, seen := s.lastVal[k]
		s.verdict(seen && old == value)
		s.lastVal[k] = value
	}
}

// ProfServe records module mm serving one (possibly combined) request
// for word.
func (p *Profiler) ProfServe(mm, word int, op msg.Op) {
	if r, ok := p.word(msg.Addr{MM: mm, Word: word}); ok {
		r.served++
		p.words[mm][word] = r
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
