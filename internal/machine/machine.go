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
	"ultracomputer/internal/sim"
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
	// (default memory.DefaultLatency, §4.2).
	MMLatency int64
	// PECycle is the PE instruction time in network cycles (default
	// DefaultPECycle, §4.2).
	PECycle int64
	// Hashing selects the address hasher: true applies the
	// multiplicative hash of §3.1.4, false the unhashed interleave.
	Hashing bool
	// MaxOutstanding bounds each PE's in-flight shared requests
	// (register locking depth; default DefaultMaxOutstanding).
	MaxOutstanding int
	// IdealMemory bypasses the network entirely: every shared request
	// completes on the next PE cycle, which is the paracomputer of
	// §2.1 with timing — the WASHCLOTH-style ideal the paper's own
	// simulations used as reference. Comparing a run against the same
	// run with IdealMemory isolates the cost of the real network.
	IdealMemory bool
}

// Defaults for the zero fields of Config and LoadOptions (§4.2; the MM
// access time is memory.DefaultLatency).
const (
	DefaultPECycle        = 2
	DefaultMaxOutstanding = 12
	DefaultLocalWords     = 4096
)

// WithDefaults returns c with every zero field, the network's too,
// replaced by its default. It is the one place the machine's fields are
// defaulted; a run description (serve.Config) reads its values here.
func (c Config) WithDefaults() Config {
	c.Net = c.Net.WithDefaults()
	if c.MMLatency == 0 {
		c.MMLatency = memory.DefaultLatency
	}
	if c.PECycle == 0 {
		c.PECycle = DefaultPECycle
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = DefaultMaxOutstanding
	}
	if c.PEs == 0 {
		c.PEs = c.Net.Ports()
	}
	return c
}

// Bounds holds the machine's own rows of Validate's table, checked after
// the network's (network.Bounds). As there, a zero field selects its
// default and passes.
var Bounds = []network.Bound[Config]{
	{Field: "pes", Check: func(c Config) string {
		if c.PEs < 0 {
			return fmt.Sprintf("pes = %d, need >= 1", c.PEs)
		}
		if ports := c.Net.Ports(); ports > 0 && c.PEs > ports {
			return fmt.Sprintf("%d PEs but only %d network ports (k^stages)", c.PEs, ports)
		}
		return ""
	}},
	{Field: "mm_latency", Check: func(c Config) string { return atLeastOne("mm_latency = %d network cycles", c.MMLatency) }},
	{Field: "pe_cycle", Check: func(c Config) string { return atLeastOne("pe_cycle = %d network cycles", c.PECycle) }},
	{Field: "max_outstanding", Check: func(c Config) string { return atLeastOne("max_outstanding = %d", int64(c.MaxOutstanding)) }},
}

// atLeastOne checks a field that must be >= 1 and whose zero selects a
// default: only a negative value fails.
func atLeastOne(format string, v int64) string {
	if v < 0 {
		return fmt.Sprintf(format+", need >= 1", v)
	}
	return ""
}

// Validate reports every field, the network's and the machine's, that
// makes the configuration unusable, as a *network.ValidateError, or nil.
// New panics with it.
func (c Config) Validate() error {
	return network.Invalid(append(network.CheckBounds(c.Net, network.Bounds), network.CheckBounds(c, Bounds)...)...)
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

	// eng runs Step's phases (default Serial); stepper drives the network.
	eng     engine.Engine
	stepper *network.Stepper

	// solo, when >= 0, restricts PE ticks to that one PE (replies still
	// deliver to everyone) — the schedule-driven stepping hook StepPE
	// uses it to serialize instruction execution for counterexample
	// replay. -1 is normal operation.
	solo int

	// horizon is the last PE cycle of the Run call in progress, 0 outside
	// one: a PE may retire private instructions ahead of the clock up to
	// it (pe.PE.Tick), because Run's caller reads nothing before Run
	// returns.
	horizon int64

	// idealPending holds replies generated under IdealMemory during
	// this cycle, delivered at the start of the next (one-cycle
	// paracomputer access). A request is applied when its PE injects it,
	// so the serialization is PE order, then issue order.
	idealPending []idealReply

	// cmWait is the access-time distribution of every PE's shared
	// requests, which each PE records into as its replies arrive and
	// Report reads.
	cmWait *sim.Histogram

	// Phase bodies and MM ports are built once (New) so Step
	// allocates nothing in steady state: the closures read the cycle
	// from the receiver, and each memory.Port is a pointer into one
	// slab of mmPorts, boxed once.
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
// configuration (Validate).
func New(cfg Config, cores []pe.Core) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.WithDefaults()
	if len(cores) > cfg.PEs {
		panic(fmt.Sprintf("machine: %d cores for %d PEs", len(cores), cfg.PEs))
	}
	m := &Machine{cfg: cfg, net: network.New(cfg.Net), eng: engine.Serial{}, solo: -1}
	m.stepper = network.NewStepper(m.net, nil)
	ports := m.net.Ports()
	var h memory.Hasher
	if cfg.Hashing {
		h = memory.MultHash{N: ports}
	} else {
		h = memory.Interleave{N: ports}
	}
	m.bank = memory.NewBank(ports, cfg.MMLatency, h)
	var inject func(int, msg.Request) bool
	if cfg.IdealMemory {
		inject = m.applyIdeal
	} else {
		inject = m.inject
	}
	m.cmWait = sim.NewHistogram(256)
	slab := pe.NewPEs(cores, h, inject, cfg.MaxOutstanding, m.cmWait)
	m.pes = make([]*pe.PE, len(slab))
	for i := range slab {
		m.pes[i] = &slab[i]
	}
	m.wirePEs()
	mmPorts := make([]mmPort, ports)
	m.mmPorts = make([]memory.Port, ports)
	for mm := range m.mmPorts {
		mmPorts[mm] = mmPort{m, mm}
		m.mmPorts[mm] = &mmPorts[mm]
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
			m.pes[i].Tick(m.peCycles, len(m.pes), m.horizon)
		}
	}
	return m
}

// inject offers PE peID's request to the network: every PE's PNI injects
// through it.
func (m *Machine) inject(peID int, r msg.Request) bool { return m.stepper.Inject(peID, r, m.cycle) }

// applyIdeal is inject under IdealMemory: it executes the request against
// memory at once (the serialization order is PE order, then issue order,
// within the cycle), schedules its reply for the next PE cycle, and
// always accepts.
func (m *Machine) applyIdeal(peID int, r msg.Request) bool {
	mod := m.bank.Modules[r.Addr.MM]
	newVal, ret := msg.Apply(r.Op, mod.Peek(r.Addr.Word), r.Operand)
	mod.Poke(r.Addr.Word, newVal)
	mod.Served.Inc()
	m.idealPending = append(m.idealPending, idealReply{pe: peID, rep: r.Reply(ret)})
	return true
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
// every unit emits through the components' fan-outs, so a late consumer sees
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
	if o.Tracer != nil {
		o.Tracer.ExpectTrip(m.cfg.Net.Stages)
	}
	m.net.SetProbe(rec)
	m.net.SetTracer(tr)
	m.net.SetProfiler(pr)
	m.bank.SetProbe(rec)
	m.bank.SetTracer(tr)
	m.bank.SetProfiler(pr)
	m.wirePEs()
}

// wirePEs hands every PE its sink — the network's, so PE events
// interleave with the network's events for the same PE — and the tracer
// its PNI samples with.
func (m *Machine) wirePEs() {
	subs, out := m.stepper.PESink()
	for _, p := range m.pes {
		p.Observe(subs, out, m.cfg.PECycle, m.observers.Tracer)
	}
}

// SetEngine sets what runs Step's phases: nil means engine.Serial. Step
// hands it exactly three phases a cycle, in this order — module service,
// reply delivery, PE tick — and under IdealMemory only the tick, so a
// wrapping engine can name each phase by its ordinal (the benchmark's
// phase timer does). Call before the first Step.
func (m *Machine) SetEngine(e engine.Engine) {
	if m.cycle > 0 {
		panic("machine: SetEngine after the first Step")
	}
	if e == nil {
		e = engine.Serial{}
	}
	m.eng = e
}

// Sampler returns the attached sampler, or nil.
func (m *Machine) Sampler() *obs.Sampler { return m.observers.Sampler }

// NumPE reports the populated PE count.
func (m *Machine) NumPE() int { return len(m.pes) }

// Cycles reports elapsed network cycles.
func (m *Machine) Cycles() int64 { return m.cycle }

// PECycles reports elapsed PE cycles.
func (m *Machine) PECycles() int64 { return m.peCycles }

// mmPort adapts the network's MM side to memory.Port.
type mmPort struct {
	m  *Machine
	mm int
}

func (p *mmPort) Dequeue() (msg.Request, bool) { return p.m.stepper.MMDequeue(p.mm) }
func (p *mmPort) Reply(r msg.Reply) bool       { return p.m.net.MMReply(p.mm, r) }

// Step advances the machine one network cycle: the network moves, memory
// modules serve, replies reach the PEs, and — every PECycle network
// cycles — each PE executes one instruction cycle. Under IdealMemory the
// network and module timing are bypassed and last cycle's replies arrive
// directly.
//
// Module service, reply delivery and the PE tick run through the
// configured engine (SetEngine), each over its units in ascending order.
func (m *Machine) Step() {
	if m.cfg.IdealMemory {
		m.stepIdealDeliver()
	} else {
		m.stepper.Step(m.cycle)
		m.eng.Run(len(m.bank.Modules), m.mmStepFn)
		m.eng.Run(len(m.pes), m.collectFn)
	}
	if m.cycle%m.cfg.PECycle == 0 {
		m.eng.Run(len(m.pes), m.tickFn)
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
// PEs, in the order they were applied in.
func (m *Machine) stepIdealDeliver() {
	for _, ir := range m.idealPending {
		m.pes[ir.pe].Deliver(ir.rep, m.peCycles)
	}
	m.idealPending = m.idealPending[:0]
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
// cycles elapsed and whether the machine finished. Inside the call a PE
// may retire private instructions ahead of the clock, never past the
// last PE cycle before limit, so what its caller reads afterwards is
// what Step would have left.
func (m *Machine) Run(limit int64) (peCycles int64, done bool) {
	if limit > m.cycle {
		// PE cycle c ticks at network cycle c·PECycle.
		m.horizon = (limit - 1) / m.cfg.PECycle
		defer func() { m.horizon = 0 }()
	}
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
