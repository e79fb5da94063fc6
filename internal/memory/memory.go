// Package memory implements the Ultracomputer's memory modules (MMs) and
// the memory-side behavior of the memory network interface (MNI): request
// service with a fixed access latency, the MNI ALU that executes
// fetch-and-phi operations atomically at the module (§3.1.3), and the
// virtual-address hashing that spreads references uniformly over the
// modules (§3.1.4).
package memory

import (
	"fmt"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Port is the memory side of the interconnect: the module pulls fully
// assembled requests and pushes replies. A false return from Reply means
// the MNI output queue is momentarily full and the module must retry.
type Port interface {
	// Dequeue removes the next request waiting at this module.
	Dequeue() (msg.Request, bool)
	// Reply offers a reply to the network.
	Reply(msg.Reply) bool
}

// Module is one memory module with its MNI adder. It serves one request
// every Latency cycles, applying the request's fetch-and-phi operation to
// the addressed word and returning the old value.
type Module struct {
	id      int
	latency int64
	words   map[int]int64

	busyUntil int64
	current   msg.Request
	busy      bool
	pending   *msg.Reply

	// Served counts completed memory operations; a hot spot served
	// through a combining network shows Served far below the number of
	// requests issued.
	Served sim.Counter

	// subs is the set of consumers attached to the module's bank (noSubs
	// for a module outside a bank) and out where its events go: the
	// bank's fan-out, or the module's buffer once Buffered.
	subs *obs.Subs
	out  obs.Probe
}

// noSubs is the empty, never written audience of a module outside a bank.
var noSubs obs.Subs

// begin starts serving r.
func (m *Module) begin(r msg.Request, cycle int64) {
	m.busy = true
	m.current = r
	m.busyUntil = cycle + m.latency
	if to := m.subs.For(obs.KindMNIBegin, r.TC.Traced()); to != 0 {
		m.out.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindMNIBegin, PE: int32(r.PE), Stage: -1,
			MM: int32(m.id), Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
		})
	}
}

// replied records, for the tracer alone, a reply entering the MNI output
// queue.
func (m *Module) replied(rep msg.Reply, cycle int64) {
	if to := m.subs.For(obs.KindReplyHop, rep.TC.Traced()) & obs.SubTrace; to != 0 {
		m.out.Emit(obs.Event{
			To: to, Cycle: cycle, Kind: obs.KindReplyHop, PE: int32(rep.PE), Stage: -1,
			MM: int32(m.id), Copy: -1, ID: rep.ID, Op: rep.Op, Addr: rep.Addr,
		})
	}
}

// NewModule returns module id with the given access latency in cycles
// (latency < 1 is treated as 1). All words read as zero until written.
func NewModule(id int, latency int64) *Module {
	if latency < 1 {
		latency = 1
	}
	return &Module{id: id, latency: latency, words: make(map[int]int64), subs: &noSubs}
}

// ID reports the module number.
func (m *Module) ID() int { return m.id }

// Peek reads a word directly, bypassing timing — for result checking and
// for loaders that preinitialize memory.
func (m *Module) Peek(word int) int64 { return m.words[word] }

// Poke writes a word directly, bypassing timing.
func (m *Module) Poke(word int, v int64) { m.words[word] = v }

// Idle reports whether the module has no operation in progress and no
// reply awaiting MNI space.
func (m *Module) Idle() bool { return !m.busy && m.pending == nil }

// Accept hands the module a request directly (callers that pull from the
// network themselves, e.g. to timestamp arrivals). The module must be
// Idle.
func (m *Module) Accept(r msg.Request, cycle int64) {
	if !m.Idle() {
		panic(fmt.Sprintf("memory: Accept on busy module %d", m.id))
	}
	m.begin(r, cycle)
}

// Step advances the module one cycle against its network port: it first
// retries any reply blocked on MNI space, completes the operation in
// progress when its latency has elapsed, and starts a new request when
// idle.
func (m *Module) Step(cycle int64, port Port) {
	if m.pending != nil {
		if port.Reply(*m.pending) {
			m.replied(*m.pending, cycle)
			m.pending = nil
		} else {
			return
		}
	}
	if m.busy && cycle >= m.busyUntil {
		r := m.current
		if r.Addr.MM != m.id {
			panic(fmt.Sprintf("memory: module %d received request for MM %d", m.id, r.Addr.MM))
		}
		old := m.words[r.Addr.Word]
		newVal, ret := msg.Apply(r.Op, old, r.Operand)
		// m.words is this module's own storage; the MM phase shards by
		// module, and addresses are interleaved so no two modules share
		// a word. A read does not write it: an absent word reads as zero,
		// so storing an unchanged value would only grow the map.
		if newVal != old {
			//ultravet:ok sharecheck m.words belongs to this module; the MM phase shards by module
			m.words[r.Addr.Word] = newVal
		}
		m.Served.Inc()
		m.busy = false
		if to := m.subs.For(obs.KindMNIServe, r.TC.Traced()); to != 0 {
			m.out.Emit(obs.Event{
				To: to, Cycle: cycle, Kind: obs.KindMNIServe, PE: int32(r.PE), Stage: -1,
				MM: int32(m.id), Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
				Value: ret,
			})
		}
		rep := r.Reply(ret)
		if !port.Reply(rep) {
			// Copy before taking the address, so that only a blocked
			// reply is heap-allocated, not every reply served.
			blocked := rep
			m.pending = &blocked
			return
		}
		m.replied(rep, cycle)
	}
	if !m.busy && m.pending == nil {
		if r, ok := port.Dequeue(); ok {
			m.begin(r, cycle)
		}
	}
}

// Bank is the set of all N modules plus the address hasher, presenting a
// flat shared address space for loaders and checkers.
type Bank struct {
	Modules []*Module
	Hash    Hasher

	// fan delivers the modules' events to the attached consumers; bufs,
	// once Buffered, holds each module's events until Flush.
	fan  obs.Fanout
	bufs []obs.EventBuffer
}

// NewBank creates n modules with the given access latency and hashing
// scheme.
func NewBank(n int, latency int64, h Hasher) *Bank {
	b := &Bank{Hash: h}
	for i := 0; i < n; i++ {
		m := NewModule(i, latency)
		m.subs, m.out = b.fan.Subs(), &b.fan
		b.Modules = append(b.Modules, m)
	}
	return b
}

// Read reads the word at linear shared address a, bypassing timing.
func (b *Bank) Read(a int64) int64 {
	addr := b.Hash.Map(a)
	return b.Modules[addr.MM].Peek(addr.Word)
}

// Write writes the word at linear shared address a, bypassing timing.
func (b *Bank) Write(a, v int64) {
	addr := b.Hash.Map(a)
	b.Modules[addr.MM].Poke(addr.Word, v)
}

// TotalServed sums completed operations across all modules.
func (b *Bank) TotalServed() int64 {
	var t int64
	for _, m := range b.Modules {
		t += m.Served.Value()
	}
	return t
}

// SetProbe subscribes an event probe (the recorder) to every module's
// events; nil detaches it. Like SetTracer and SetProfiler, call it before
// the first Step.
func (b *Bank) SetProbe(p obs.Probe) { b.fan.Subscribe(obs.SubRecord, p) }

// SetTracer subscribes the request tracer to every module; it receives
// only events of requests carrying a trace context.
func (b *Bank) SetTracer(p obs.Probe) { b.fan.Subscribe(obs.SubTrace, p) }

// SetProfiler subscribes the guest profiler to every module; of a
// bank's events it receives the completed serves.
func (b *Bank) SetProfiler(p obs.Probe) { b.fan.Subscribe(obs.SubProf, p) }

// Buffered gives every module its own event buffer, for an engine that
// steps modules on several workers at once; Flush then replays them in
// module order: the sequence a serial engine emits inline.
func (b *Bank) Buffered() {
	b.bufs = make([]obs.EventBuffer, len(b.Modules))
	for i, m := range b.Modules {
		m.out = &b.bufs[i]
	}
}

// Flush drains the module buffers after a module phase; a no-op unless
// Buffered, and when no consumer is attached (nothing was emitted).
func (b *Bank) Flush() {
	if *b.fan.Subs() == 0 {
		return
	}
	for i := range b.bufs {
		b.bufs[i].DrainTo(&b.fan)
	}
}

// Observe fills the memory side of a periodic metrics snapshot: the
// fraction of modules mid-access, the cumulative served count, and the
// per-module served counts behind the service-skew diagnostic.
func (b *Bank) Observe(sn *obs.Snapshot) {
	busy := 0
	sn.MMServedPerModule = make([]int64, len(b.Modules))
	for i, m := range b.Modules {
		if !m.Idle() {
			busy++
		}
		sn.MMServedPerModule[i] = m.Served.Value()
		sn.MMServed += m.Served.Value()
	}
	if len(b.Modules) > 0 {
		sn.MMBusyFrac = float64(busy) / float64(len(b.Modules))
	}
}

// Idle reports whether every module is idle.
func (b *Bank) Idle() bool {
	for _, m := range b.Modules {
		if !m.Idle() {
			return false
		}
	}
	return true
}
