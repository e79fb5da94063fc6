// Package machine assembles the full NYU Ultracomputer (Figure 1): N
// processing elements connected through the combining Omega network to N
// memory modules, with the timing ratios of the paper's simulations
// (§4.2): the PE instruction time and the MM access time both default to
// twice the network cycle time.
package machine

import (
	"fmt"
	"math"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/pe"
)

// Config describes a machine.
type Config struct {
	// Net configures the interconnect; the network's port count is the
	// machine's MM count and the upper bound on PEs.
	Net network.Config
	// PEs is the number of processing elements actually populated
	// (paper §4.2 simulates 16 or 48 PEs against a 4096-port network).
	// Zero means one PE per port.
	PEs int
	// MMLatency is the memory module access time in network cycles
	// (default 2, §4.2).
	MMLatency int64
	// PECycle is the PE instruction time in network cycles (default 2,
	// §4.2).
	PECycle int64
	// Hashing selects the address hasher: true applies the
	// multiplicative hash of §3.1.4, false the unhashed interleave.
	Hashing bool
	// MaxOutstanding bounds each PE's in-flight shared requests
	// (register locking depth; default 12).
	MaxOutstanding int
	// IdealMemory bypasses the network entirely: every shared request
	// completes on the next PE cycle, which is the paracomputer of
	// §2.1 with timing — the WASHCLOTH-style ideal the paper's own
	// simulations used as reference. Comparing a run against the same
	// run with IdealMemory isolates the cost of the real network.
	IdealMemory bool
}

func (c Config) withDefaults() Config {
	if c.MMLatency == 0 {
		c.MMLatency = 2
	}
	if c.PECycle == 0 {
		c.PECycle = 2
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 12
	}
	if c.PEs == 0 {
		c.PEs = c.Net.Ports()
	}
	return c
}

// Machine is one simulated Ultracomputer.
type Machine struct {
	cfg  Config
	net  *network.Network
	bank *memory.Bank
	pes  []*pe.PE

	cycle    int64 // network cycles elapsed
	peCycles int64 // PE cycles elapsed

	// observers is the run's set of consumers (Observe).
	observers prof.Observers

	// eng is the execution engine driving Step (default Serial); the
	// stepper materializes lazily on the first Step so consumers and
	// engine can be attached in any order beforehand.
	eng     engine.Engine
	stepper *network.Stepper

	// solo, when >= 0, restricts PE ticks to that one PE (replies still
	// deliver to everyone) — the schedule-driven stepping hook StepPE
	// uses it to serialize instruction execution for counterexample
	// replay. -1 is normal operation.
	solo int

	// idealPending holds replies generated under IdealMemory during
	// this cycle, delivered at the start of the next (one-cycle
	// paracomputer access). Injections are buffered per PE during the
	// tick phase (idealHold) and applied in PE order after its barrier,
	// so the serialization is pe-major under every engine.
	idealPending []idealReply
	idealHold    [][]msg.Request

	// Phase bodies and MM ports are built once (ensureStepper) so Step
	// allocates nothing in steady state: the closures read the cycle
	// from the receiver, and the prebuilt memory.Port values avoid
	// re-boxing an mmPort per module per cycle.
	mmPorts   []memory.Port
	mmStepFn  func(lo, hi, w int)
	collectFn func(lo, hi, w int)
	tickFn    func(lo, hi, w int)
}

type idealReply struct {
	pe  int
	rep msg.Reply
}

// New builds a machine; cores[i] drives PE i. Pass fewer cores than
// Config.PEs and the rest idle as halted. It panics on invalid
// configuration.
func New(cfg Config, cores []pe.Core) *Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Net.Validate(); err != nil {
		panic(err)
	}
	ports := cfg.Net.Ports()
	if cfg.PEs > ports {
		panic(fmt.Sprintf("machine: %d PEs but only %d network ports", cfg.PEs, ports))
	}
	if len(cores) > cfg.PEs {
		panic(fmt.Sprintf("machine: %d cores for %d PEs", len(cores), cfg.PEs))
	}
	m := &Machine{cfg: cfg, net: network.New(cfg.Net), solo: -1}
	var h memory.Hasher
	if cfg.Hashing {
		h = memory.MultHash{N: ports}
	} else {
		h = memory.Interleave{N: ports}
	}
	m.bank = memory.NewBank(ports, cfg.MMLatency, h)
	for i := range cores {
		peID := i
		var inject func(msg.Request) bool
		if cfg.IdealMemory {
			inject = func(r msg.Request) bool {
				m.idealHold[peID] = append(m.idealHold[peID], r)
				return true
			}
		} else {
			inject = func(r msg.Request) bool { return m.stepper.Inject(peID, r, m.cycle) }
		}
		m.pes = append(m.pes, pe.New(peID, cores[i], h, inject, cfg.MaxOutstanding))
	}
	return m
}

// applyIdeal executes one held request against memory (the
// serialization order is PE order, then issue order, within the cycle)
// and schedules its reply for the next PE cycle.
func (m *Machine) applyIdeal(peID int, r msg.Request) {
	mod := m.bank.Modules[r.Addr.MM]
	newVal, ret := msg.Apply(r.Op, mod.Peek(r.Addr.Word), r.Operand)
	mod.Poke(r.Addr.Word, newVal)
	mod.Served.Inc()
	m.idealPending = append(m.idealPending, idealReply{pe: peID, rep: r.Reply(ret)})
}

// NewPrograms is a convenience constructor wrapping each Program in a
// GoCore.
func NewPrograms(cfg Config, progs []pe.Program) *Machine {
	cores := make([]pe.Core, len(progs))
	for i, p := range progs {
		cores[i] = pe.NewGoCore(p)
	}
	return New(cfg, cores)
}

// SPMD builds a machine whose populated PEs all run the same program
// (each sees its own ctx.PE()).
func SPMD(cfg Config, n int, prog pe.Program) *Machine {
	progs := make([]pe.Program, n)
	for i := range progs {
		progs[i] = prog
	}
	cfg.PEs = n
	return NewPrograms(cfg, progs)
}

// Observe attaches the run's consumers to every layer of the machine,
// replacing whatever was attached before (a nil field detaches): the
// recorder probe takes network injection/hops/combining, memory-module
// service, PE stalls and the events of any cache a program attaches; the
// tracer stamps sampled requests with a trace context at the PNI and
// takes their per-hop events; the profiler takes PE cycles, issues and
// deliveries, module serves and combines; the sampler snapshots queue
// occupancy, combining and MM utilization every Sampler.Every network
// cycles. It may be called between Steps as well as before the first:
// every unit emits through the stepper's sinks, so a late consumer sees
// exactly the events from then on that an early one would have. With
// nothing attached (the default) a site costs one mask test. Under
// IdealMemory the trace context propagates into replies but no network
// hops exist, so spans stay empty.
func (m *Machine) Observe(o prof.Observers) {
	m.observers = o
	rec, tr, pr := o.Probes()
	if o.Profiler != nil {
		o.Profiler.SetMMs(len(m.bank.Modules))
	}
	m.net.SetProbe(rec)
	m.net.SetTracer(tr)
	m.net.SetProfiler(pr)
	m.bank.SetProbe(rec)
	m.bank.SetTracer(tr)
	m.bank.SetProfiler(pr)
	if m.stepper != nil {
		m.wirePEs()
	}
}

// wirePEs hands every PE its sink — the stepper's, so PE events
// interleave with the network's events for the same PE under every
// engine — and the tracer its PNI samples with.
func (m *Machine) wirePEs() {
	for i, p := range m.pes {
		subs, out := m.stepper.PESink(i)
		p.Observe(subs, out, m.cfg.PECycle, m.observers.Tracer)
	}
}

// SetEngine selects the execution engine driving Step: nil or
// engine.Serial for the in-line reference behavior, engine.NewParallel
// to shard each phase across a worker pool. Call before the first
// Step. The caller owns eng and must Close it after the run. Same-seed
// runs are byte-identical under every engine (see internal/engine).
func (m *Machine) SetEngine(e engine.Engine) {
	if m.stepper != nil {
		panic("machine: SetEngine after the first Step")
	}
	m.eng = e
}

// ensureStepper builds the phased network driver on first use, points
// the PEs at its sinks and, under a parallel engine, gives every memory
// module its own event buffer (drained in unit order each cycle, so
// every consumer sees the events of a serial run, in the same order).
func (m *Machine) ensureStepper() {
	if m.stepper != nil {
		return
	}
	if m.eng == nil {
		m.eng = engine.Serial{}
	}
	m.stepper = network.NewStepper(m.net, m.eng)
	m.wirePEs()
	if m.stepper.Parallel() {
		m.bank.Buffered()
	}
	if m.cfg.IdealMemory {
		m.idealHold = make([][]msg.Request, len(m.pes))
	}
	m.mmPorts = make([]memory.Port, len(m.bank.Modules))
	for mm := range m.mmPorts {
		m.mmPorts[mm] = mmPort{m, mm}
	}
	m.mmStepFn = func(lo, hi, _ int) {
		for mm := lo; mm < hi; mm++ {
			// An idle module with no arrival waiting has nothing to do.
			if mod := m.bank.Modules[mm]; !mod.Idle() || m.net.MMWaiting(mm) {
				mod.Step(m.cycle, m.mmPorts[mm])
			}
		}
	}
	m.collectFn = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			for _, rep := range m.stepper.Collect(i, m.cycle) {
				m.pes[i].Deliver(rep, m.peCycles)
			}
		}
	}
	m.tickFn = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if m.solo >= 0 && i != m.solo {
				continue
			}
			m.pes[i].Tick(m.peCycles, len(m.pes))
		}
	}
}

// Sampler returns the attached sampler, or nil.
func (m *Machine) Sampler() *obs.Sampler { return m.observers.Sampler }

// NumPE reports the populated PE count.
func (m *Machine) NumPE() int { return len(m.pes) }

// Cycles reports elapsed network cycles.
func (m *Machine) Cycles() int64 { return m.cycle }

// PECycles reports elapsed PE cycles.
func (m *Machine) PECycles() int64 { return m.peCycles }

// mmPort adapts the network's MM side to memory.Port, routed through
// the stepper so delivered-to-MM counts land in the right sink under
// any engine.
type mmPort struct {
	m  *Machine
	mm int
}

func (p mmPort) Dequeue() (msg.Request, bool) { return p.m.stepper.MMDequeue(p.mm) }
func (p mmPort) Reply(r msg.Reply) bool       { return p.m.net.MMReply(p.mm, r) }

// Step advances the machine one network cycle: the network moves, memory
// modules serve, replies reach the PEs, and — every PECycle network
// cycles — each PE executes one instruction cycle. Under IdealMemory the
// network and module timing are bypassed and last cycle's replies arrive
// directly.
//
// Every phase runs through the configured engine (SetEngine): network
// movement sharded by switch column, module service by MM, reply
// delivery and instruction ticks by PE, with the stepper's flushes
// merging buffered observability in deterministic unit order between
// phases.
func (m *Machine) Step() {
	//ultravet:ok hotalloc one-time lazy construction of the stepper and phase bodies on the first Step
	m.ensureStepper()
	if m.cfg.IdealMemory {
		m.stepIdealDeliver()
	} else {
		m.stepper.Step(m.cycle)
		m.eng.Run(len(m.bank.Modules), m.mmStepFn)
		m.stepper.FlushMM()
		m.bank.Flush()
		m.eng.Run(len(m.pes), m.collectFn)
		m.stepper.FlushCollect()
	}
	if m.cycle%m.cfg.PECycle == 0 {
		m.eng.Run(len(m.pes), m.tickFn)
		m.stepper.FlushInject()
		// Apply the IdealMemory injections the tick buffered, in PE
		// order (idealHold is nil on a real network).
		for pe := range m.idealHold {
			for _, r := range m.idealHold[pe] {
				m.applyIdeal(pe, r)
			}
			m.idealHold[pe] = m.idealHold[pe][:0]
		}
		m.peCycles++
	}
	if sam := m.observers.Sampler; sam != nil && sam.Due(m.cycle) {
		// Snapshot assembly allocates, but only on sampling cycles
		// (every Sampler.Every-th cycle), never in the steady-state tick.
		//ultravet:ok hotalloc periodic sampling path, off the per-cycle steady state
		m.sample(sam)
	}
	m.cycle++
}

// sample records one periodic metrics snapshot: the network's queues,
// the modules, and per-PE instructions retired and stall cycles, served
// as labeled series at /metrics.
func (m *Machine) sample(sam *obs.Sampler) {
	sn := m.net.Snapshot(m.cycle)
	m.bank.Observe(&sn)
	sn.PEInstructions = make([]int64, len(m.pes))
	sn.PEStallCycles = make([]int64, len(m.pes))
	for i, p := range m.pes {
		st := p.Stats()
		sn.PEInstructions[i] = st.Instructions.Value()
		sn.PEStallCycles[i] = st.IdleCycles.Value()
	}
	sam.Record(sn)
	if pf := m.observers.Profiler; pf != nil {
		// Rebuild the live /profile payload (no-op unless live
		// publishing was enabled; see prof.Profiler.EnableLive).
		pf.Publish()
	}
}

// stepIdealDeliver hands last cycle's ideal-memory replies to their
// PEs, in the PE order they were applied in, on the calling goroutine
// (a delivery is a register write: not worth a sharded phase). Under a
// parallel engine the PEs' probes are per-PE buffers, drained here.
func (m *Machine) stepIdealDeliver() {
	for _, ir := range m.idealPending {
		m.pes[ir.pe].Deliver(ir.rep, m.peCycles)
	}
	m.idealPending = m.idealPending[:0]
	m.stepper.DrainPEEvents()
}

// Done reports whether every PE has halted and all traffic has drained.
func (m *Machine) Done() bool {
	for _, p := range m.pes {
		if !p.Halted() || !p.Drained() {
			return false
		}
	}
	if len(m.idealPending) > 0 {
		return false
	}
	return m.net.InFlight() == 0 && m.bank.Idle()
}

// Run steps until Done or the network-cycle limit; it reports the PE
// cycles elapsed and whether the machine finished.
func (m *Machine) Run(limit int64) (peCycles int64, done bool) {
	for m.cycle < limit {
		if m.Done() {
			return m.peCycles, true
		}
		m.Step()
	}
	return m.peCycles, m.Done()
}

// MustRun is Run that panics when the limit is hit — for tests and
// benchmarks where non-termination is a bug.
func (m *Machine) MustRun(limit int64) int64 {
	c, done := m.Run(limit)
	if !done {
		panic(fmt.Sprintf("machine: not done after %d network cycles (inflight=%d)",
			limit, m.net.InFlight()))
	}
	return c
}

// ReadShared reads the word at linear shared address a, bypassing timing.
func (m *Machine) ReadShared(a int64) int64 { return m.bank.Read(a) }

// WriteShared initializes the word at linear shared address a, bypassing
// timing (the loader's job).
func (m *Machine) WriteShared(a, v int64) { m.bank.Write(a, v) }

// ReadSharedF reads a float64 stored as IEEE bits.
func (m *Machine) ReadSharedF(a int64) float64 {
	return math.Float64frombits(uint64(m.bank.Read(a)))
}

// WriteSharedF stores a float64 as IEEE bits.
func (m *Machine) WriteSharedF(a int64, v float64) {
	m.bank.Write(a, int64(math.Float64bits(v)))
}
