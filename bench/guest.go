package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/sim"
)

//go:embed testdata/spmd.s
var kernelTemplate string

// Op sizes of the guest workloads, in loop iterations per PE. Fixed
// constants, identical on every commit. guest-ideal simulates a cycle
// some twenty times cheaper than guest-spmd, so its op runs sixteen
// times the iterations to last about as long.
const (
	guestSpmdIters  = 64
	guestIdealIters = 1024
	guestLimit      = 10_000_000 // network cycles; a kernel that has not halted by then is an op failure
	guestSpan       = 128        // words between the PEs' cached regions
)

// The cache every guest PE gets: 16 sets × 2 ways × 4-word blocks.
var guestCache = cache.Config{Sets: 16, Ways: 2, BlockWords: 4}

// kernel holds the fields of testdata/spmd.s. The seed draws the
// constants and addresses; the amount of work (iterations, region and
// private-array sizes) is fixed, so that runs at different seeds
// measure the same thing.
type kernel struct {
	Iters, Mul, Add, Counter, CBase, LMask, CWords, Phase int64
}

func drawKernel(seed uint64, iters int64) kernel {
	rng := sim.NewRand(seed)
	return kernel{
		Iters:   iters,
		Mul:     int64(2*rng.Intn(500) + 3),
		Add:     int64(rng.Intn(1000) + 1),
		Counter: int64(64 + rng.Intn(64)),
		CBase:   int64(4096 + guestCache.BlockWords*rng.Intn(256)),
		LMask:   511,
		CWords:  64,
		Phase:   int64(rng.Intn(64)),
	}
}

func (k kernel) text() string {
	d := strconv.FormatInt
	return strings.NewReplacer(
		"{{ITERS}}", d(k.Iters, 10), "{{MUL}}", d(k.Mul, 10), "{{ADD}}", d(k.Add, 10),
		"{{COUNTER}}", d(k.Counter, 10), "{{SPAN}}", d(guestSpan, 10), "{{CBASE}}", d(k.CBase, 10),
		"{{LMASK}}", d(k.LMask, 10), "{{CWORDS}}", d(k.CWords, 10), "{{PHASE}}", d(k.Phase, 10),
	).Replace(kernelTemplate)
}

// check verifies the kernel's shared-memory outcome on a finished
// machine: the fetch-and-add counter and every word of every PE's
// flushed region. It holds for any serialization of the run (§2.2).
func (k kernel) check(m *machine.Machine) error {
	publishes := k.Iters / 64
	if k.Iters%64 > k.Phase {
		publishes++
	}
	if got, want := m.ReadShared(k.Counter), publishes*int64(m.NumPE()); got != want {
		return fmt.Errorf("shared counter M[%d] = %d, want %d", k.Counter, got, want)
	}
	for pe := 0; pe < m.NumPE(); pe++ {
		for w := int64(0); w < k.CWords; w++ {
			want := k.Iters / k.CWords
			if k.Iters%k.CWords > w {
				want++
			}
			a := k.CBase + int64(pe)*guestSpan + w
			if got := m.ReadShared(a); got != want {
				return fmt.Errorf("PE %d region word M[%d] = %d, want %d", pe, a, got, want)
			}
		}
	}
	return nil
}

func guestConfig(ideal bool) machine.Config {
	return machine.Config{Net: benchNet, PEs: benchNet.Ports(), Hashing: true, IdealMemory: ideal}
}

// Span names of the guest driver. The three phase names are given to
// Machine.Step's eng.Run calls by their order within the cycle.
const (
	spLoad    = "machine.load"
	spStep    = "machine.step" // self time: the network stepper and its flushes
	spMMStep  = "memory.step"
	spDeliver = "machine.deliver"
	spTick    = "pe.tick"
	spReport  = "machine.report"
)

// phaseEngine is an engine.Engine that runs every phase inline, exactly
// as engine.Serial does (Workers() == 0, fn(0, n, 0)), and records a
// span around each. Machine.Step routes its module-service,
// reply-delivery and PE-tick phases through eng.Run even when serial,
// always in that order, so the ordinal of the call within the cycle
// names the phase; under IdealMemory only the PE tick goes through.
type phaseEngine struct {
	sp     *spanRec
	names  []string
	parent int32 // the machine.step span of the cycle in progress
	ord    int   // eng.Run calls so far this cycle
	calls  int64
}

func newPhaseEngine(sp *spanRec, ideal bool) *phaseEngine {
	e := &phaseEngine{sp: sp, names: []string{spMMStep, spDeliver, spTick}}
	if ideal {
		e.names = []string{spTick}
	}
	return e
}

func (e *phaseEngine) Run(n int, fn func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	e.calls++
	id := e.sp.begin(e.names[e.ord], e.parent)
	fn(0, n, 0)
	e.sp.end(id)
	e.ord++
}

func (e *phaseEngine) Workers() int { return 0 }
func (e *phaseEngine) Close()       {}

// stepped runs m to halt by calling Machine.Step from here, through a
// phaseEngine — the traced path, and the reference the untraced
// Machine.Run path is checked against.
func stepped(m *machine.Machine, sp *spanRec, parent int32, ideal bool) (done bool, calls int64) {
	e := newPhaseEngine(sp, ideal)
	m.SetEngine(e)
	for m.Cycles() < guestLimit {
		if m.Done() {
			return true, e.calls
		}
		e.ord = 0
		e.parent = sp.begin(spStep, parent)
		m.Step()
		sp.end(e.parent)
	}
	return m.Done(), e.calls
}

// guestSim is the simulated outcome of one guest op.
type guestSim struct {
	Cycles       int64  `json:"cycles"`
	ReportSHA256 string `json:"report_sha256"`
}

// guestInstance is one set-up of a guest-* workload.
type guestInstance struct {
	ideal bool
	k     kernel
	prog  *isa.Program
	want  []byte // this seed's report, from the stepped path

	assembleMs float64
	last       *machine.Machine // keeps the last op's machine reachable
	lastCores  []*isa.Core
	rep        machine.Report
	cycles     int64 // cycles of one op
	traced     struct{ cycles, engineCalls int64 }
}

func guestName(ideal bool) string {
	if ideal {
		return "guest-ideal"
	}
	return "guest-spmd"
}

// guestRun is the product path of one op: load, run to halt, report.
func guestRun(prog *isa.Program, ideal bool) (*machine.Machine, []*isa.Core, []byte, error) {
	m, cores, err := machine.Load(guestConfig(ideal), prog, machine.LoadOptions{Cache: &guestCache})
	if err != nil {
		return nil, nil, nil, err
	}
	if _, done := m.Run(guestLimit); !done {
		return nil, nil, nil, fmt.Errorf("kernel not halted after %d cycles", guestLimit)
	}
	rep, err := m.Report().JSON()
	return m, cores, rep, err
}

func setupGuest(ideal bool, seed uint64, g *golden) (instance, error) {
	iters := int64(guestSpmdIters)
	if ideal {
		iters = guestIdealIters
	}
	// Golden and warm-up op: the pinned seed through the product path.
	gk := drawKernel(goldenSeed, iters)
	gprog, err := isa.Assemble(gk.text())
	if err != nil {
		return nil, fmt.Errorf("assemble golden kernel: %w", err)
	}
	gm, _, grep, err := guestRun(gprog, ideal)
	if err != nil {
		return nil, err
	}
	if err := gk.check(gm); err != nil {
		return nil, fmt.Errorf("golden kernel: %w", err)
	}
	sum := sha256.Sum256(grep)
	if err := checkPinned(g.update, g.Guest, guestName(ideal), guestSim{Cycles: gm.Cycles(), ReportSHA256: hex.EncodeToString(sum[:])}); err != nil {
		return nil, err
	}

	in := &guestInstance{ideal: ideal, k: drawKernel(seed, iters)}
	t := time.Now()
	in.prog, err = isa.Assemble(in.k.text())
	in.assembleMs = float64(time.Since(t)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("assemble kernel: %w", err)
	}
	// Reference for this seed through the other path: Machine.Step
	// driven from here.
	m, _, err := machine.Load(guestConfig(ideal), in.prog, machine.LoadOptions{Cache: &guestCache})
	if err != nil {
		return nil, err
	}
	if done, _ := stepped(m, nil, -1, ideal); !done {
		return nil, fmt.Errorf("kernel not halted after %d cycles", guestLimit)
	}
	if err := in.k.check(m); err != nil {
		return nil, err
	}
	if in.want, err = m.Report().JSON(); err != nil {
		return nil, err
	}
	in.cycles, in.rep = m.Cycles(), m.Report()
	return in, nil
}

func (in *guestInstance) close() {}

func (in *guestInstance) op(_ int, sp *spanRec) (opResult, error) {
	var rep []byte
	var err error
	t := time.Now()
	if sp == nil {
		in.last, in.lastCores, rep, err = guestRun(in.prog, in.ideal)
		if err != nil {
			return opResult{}, err
		}
	} else {
		op := sp.begin("bench.op", -1)
		id := sp.begin(spLoad, op)
		in.last, in.lastCores, err = machine.Load(guestConfig(in.ideal), in.prog, machine.LoadOptions{Cache: &guestCache})
		sp.end(id)
		if err != nil {
			return opResult{}, err
		}
		done, calls := stepped(in.last, sp, op, in.ideal)
		if !done {
			return opResult{}, fmt.Errorf("kernel not halted after %d cycles", guestLimit)
		}
		id = sp.begin(spReport, op)
		rep, err = in.last.Report().JSON()
		sp.end(id)
		sp.end(op)
		if err != nil {
			return opResult{}, err
		}
		in.traced.cycles += in.last.Cycles()
		in.traced.engineCalls += calls
	}
	wall := time.Since(t)
	if !bytes.Equal(rep, in.want) {
		return opResult{}, fmt.Errorf("report differs between Machine.Run and the stepped path (%d vs %d bytes)", len(rep), len(in.want))
	}
	if err := in.k.check(in.last); err != nil {
		return opResult{}, err
	}
	return opResult{cycles: in.last.Cycles(), wall: wall}, nil
}

func (in *guestInstance) layers(tr *spanRec, m map[string]float64) error {
	if in.traced.cycles == 0 {
		return fmt.Errorf("no traced op ran")
	}
	cyc := float64(in.traced.cycles)
	m["network.step_ns_per_cycle"] = float64(tr.self[spStep]) / cyc
	m["memory.step_ns_per_cycle"] = float64(tr.self[spMMStep]) / cyc
	m["machine.deliver_ns_per_cycle"] = float64(tr.self[spDeliver]) / cyc
	m["pe.tick_ns_per_cycle"] = float64(tr.self[spTick]) / cyc
	m["bench.driver_ns_per_cycle"] = float64(tr.self["bench.op"]) / cyc
	m["machine.load_ms"] = tr.ms(spLoad)
	m["machine.report_ms"] = tr.ms(spReport)
	m["isa.assemble_ms"] = in.assembleMs
	m["engine.run_calls_per_cycle"] = float64(in.traced.engineCalls) / cyc

	r := in.rep
	peCycles := float64(r.PEs) * float64(r.PECyclesRun)
	m["pe.instructions"] = float64(r.Instructions)
	m["pe.ipc"] = float64(r.Instructions) / peCycles
	m["pe.stall_frac.memory"] = float64(r.IdleMemory) / peCycles
	m["pe.stall_frac.net_full"] = float64(r.IdleNetFull) / peCycles
	m["pe.stall_frac.pipeline"] = float64(r.IdlePipeline) / peCycles
	var hits, misses int64
	for _, c := range in.lastCores {
		s := c.Cache().Stats()
		hits += s.Hits.Value()
		misses += s.Misses.Value()
	}
	m["cache.hit_frac"] = float64(hits) / float64(hits+misses)
	m["network.injected"] = float64(r.NetworkInjected)
	m["network.combines"] = float64(r.Combines)
	m["memory.served"] = float64(r.MMOpsServed)

	const pec = 2 // machine.Config's default PE instruction time, in network cycles
	m["sim.cycles"] = float64(in.cycles)
	m["sim.throughput"] = float64(r.MMOpsServed) / float64(r.PEs) / float64(in.cycles)
	m["sim.rt_p50_cycles"] = r.CMAccessP50 * pec
	m["sim.rt_p99_cycles"] = r.CMAccessP99 * pec
	return nil
}
