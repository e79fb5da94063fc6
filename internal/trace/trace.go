// Package trace drives the simulated network with synthetic memory
// traffic — the independent, identically distributed random request
// streams of the paper's §4.1 analysis plus hot-spot variants — and
// measures transit times and throughput. It is the bridge between the
// analytic model (internal/analytic) and the cycle simulator
// (internal/network): Figure 7's curves are validated by running the same
// loads through both.
package trace

import (
	"fmt"

	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/sim"
)

// Workload describes a synthetic traffic pattern.
type Workload struct {
	// Rate is p, the average number of requests each PE offers per
	// network cycle (must stay below the configuration's capacity for
	// the system to be stable).
	Rate float64
	// HotFraction routes this fraction of requests to the single
	// HotWord (the rest go to uniformly random modules and words) —
	// the §3.1.2 interprocessor-coordination hot spot.
	HotFraction float64
	// HotWord is the linear address of the hot spot.
	HotWord int64
	// Words is the size of the uniform address space (default 1<<20).
	Words int64
	// Mix selects operations: fractions of loads, stores and
	// fetch-and-adds; they should sum to 1 (defaults to all
	// fetch-and-adds, the worst-case 3-packet messages).
	LoadFrac, StoreFrac float64
	// Hash spreads addresses over modules when true (§3.1.4).
	Hash bool
	// Burstiness > 0 modulates injection with an on/off process of the
	// given mean phase length (cycles): during ON phases each PE offers
	// at 2×Rate, during OFF phases not at all, keeping the mean at Rate
	// but raising its variance — the "traffic with high variance" the
	// §4.1 discussion worries about.
	Burstiness int
	// MMLatency is the module service time in network cycles
	// (default memory.DefaultLatency).
	MMLatency int64
	// Seed makes runs reproducible.
	Seed uint64
	// Observers are the run's consumers. The synthetic runner has no PEs
	// executing instructions, so the profiler sees only the contention
	// heatmap side — per-word accesses on injection, per-module serve
	// counts, per-word combines; netperf uses it to price the profiler's
	// hot-path hooks.
	prof.Observers
}

func (w Workload) withDefaults() Workload {
	if w.Words == 0 {
		w.Words = 1 << 20
	}
	if w.MMLatency == 0 {
		w.MMLatency = memory.DefaultLatency
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	return w
}

// Result aggregates a measurement run.
type Result struct {
	// Offered counts generation attempts; Injected those the network
	// accepted; Served the requests memory completed in the measurement
	// window.
	Offered, Injected, Served int64
	// OneWay observes inject-to-module transit in network cycles.
	OneWay sim.Mean
	// RoundTrip observes inject-to-reply time in network cycles.
	RoundTrip sim.Mean
	// RTP50/RTP99 are round-trip quantiles over the whole run (warmup
	// included — the network's cumulative distribution).
	RTP50, RTP99 float64
	// Throughput is served requests per PE per cycle over the
	// measurement window.
	Throughput float64
	// Combines counts switch combinations during the whole run.
	Combines int64
	// QueueLen is the distribution of switch output-queue occupancy
	// (packets), sampled every few cycles during the measurement
	// window.
	QueueLen *sim.Histogram
	// PerModuleServed is the per-MM service count (hot-spot skew
	// diagnostics).
	PerModuleServed []int64
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("offered=%d injected=%d served=%d oneway=%.2f rt=%.2f thpt=%.4f combines=%d",
		r.Offered, r.Injected, r.Served, r.OneWay.Value(), r.RoundTrip.Value(),
		r.Throughput, r.Combines)
}

// Run drives the network for warmup+measure cycles and reports statistics
// gathered over the measurement window.
func Run(cfg network.Config, w Workload, warmup, measure int64) Result {
	w = w.withDefaults()
	net := network.New(cfg)
	n := net.Ports()
	var hash memory.Hasher
	if w.Hash {
		hash = memory.MultHash{N: n}
	} else {
		hash = memory.Interleave{N: n}
	}
	bank := memory.NewBank(n, w.MMLatency, hash)
	rec, tr, pr := w.Probes()
	if w.Profiler != nil {
		w.Profiler.SetMMs(len(bank.Modules))
	}
	if w.Tracer != nil {
		w.Tracer.ExpectTrip(cfg.Stages)
	}
	net.SetProbe(rec)
	net.SetTracer(tr)
	net.SetProfiler(pr)
	bank.SetProbe(rec)
	bank.SetTracer(tr)
	bank.SetProfiler(pr)
	r := &runner{
		w: w, net: net, bank: bank, hash: hash, warmup: warmup,
		st:      network.NewStepper(net, nil),
		peRng:   make([]sim.Rand, n),
		burstOn: make([]bool, n),
		seq:     make([]uint64, n),
		ports:   make([]memory.Port, len(bank.Modules)),
	}
	rng := sim.NewRand(w.Seed)
	for i := range r.peRng {
		r.peRng[i].Seed(rng.Uint64()) // rng.Fork(), in place
		r.burstOn[i] = i%2 == 0
	}
	for mm := range r.ports {
		r.ports[mm] = replyPort{net, mm}
	}
	res := &r.res
	res.PerModuleServed = make([]int64, n)
	res.QueueLen = sim.NewHistogram(64)
	servedBefore := make([]int64, n)

	total := warmup + measure
	combinesBefore := int64(0)
	for cycle := int64(0); cycle < total; cycle++ {
		if cycle == warmup {
			combinesBefore = net.Stats().Combines.Value()
			for mm, mod := range bank.Modules {
				servedBefore[mm] = mod.Served.Value()
			}
		}
		r.tick(cycle)
		r.st.Step(cycle)
		if cycle >= warmup && cycle%8 == 0 {
			net.SampleQueues(res.QueueLen)
		}
		if w.Sampler != nil && w.Sampler.Due(cycle) {
			sn := net.Snapshot(cycle)
			bank.Observe(&sn)
			w.Sampler.Record(sn)
		}
		r.collect(cycle)
	}

	for mm, mod := range bank.Modules {
		res.PerModuleServed[mm] = mod.Served.Value() - servedBefore[mm]
		res.Served += res.PerModuleServed[mm]
	}
	res.Combines = net.Stats().Combines.Value() - combinesBefore
	res.Throughput = float64(res.Served) / float64(measure) / float64(n)
	if h := net.Stats().RoundTripHist; h != nil && h.N() > 0 {
		res.RTP50 = float64(h.Quantile(0.50))
		res.RTP99 = float64(h.Quantile(0.99))
	}
	return r.res
}

// runner is the state of one Run. Request IDs are pe<<32|seq, so every
// PE mints its own. A message carries its own injection cycle (the
// network stamps Issued), so transit times need no table here: a request
// or reply belongs to the measurement window when it was injected in it.
type runner struct {
	w       Workload
	net     *network.Network
	bank    *memory.Bank
	st      *network.Stepper
	hash    memory.Hasher
	warmup  int64
	peRng   []sim.Rand
	burstOn []bool
	seq     []uint64
	ports   []memory.Port // the modules' reply ports, built once
	res     Result
}

// tick is the PE side of a cycle before the network moves: each PE, in
// PE order, offers a request with probability Rate (modulated by the
// on/off process when Burstiness is set) and injects it.
func (r *runner) tick(cycle int64) {
	w, res := &r.w, &r.res
	measuring := cycle >= r.warmup
	for pe := range r.peRng {
		rng := &r.peRng[pe]
		rate := w.Rate
		if w.Burstiness > 0 {
			if rng.Bernoulli(1 / float64(w.Burstiness)) {
				r.burstOn[pe] = !r.burstOn[pe]
			}
			if r.burstOn[pe] {
				rate = 2 * w.Rate
			} else {
				rate = 0
			}
		}
		if !rng.Bernoulli(rate) {
			continue
		}
		if measuring {
			res.Offered++
		}
		var linear int64
		if w.HotFraction > 0 && rng.Bernoulli(w.HotFraction) {
			linear = w.HotWord
		} else {
			linear = int64(rng.Intn(int(w.Words)))
		}
		op := msg.FetchAdd
		switch u := rng.Float64(); {
		case u < w.LoadFrac:
			op = msg.Load
		case u < w.LoadFrac+w.StoreFrac:
			op = msg.Store
		}
		r.seq[pe]++
		req := msg.Request{
			ID: uint64(pe)<<32 | r.seq[pe], PE: pe, Op: op,
			Addr:    r.hash.Map(linear),
			Operand: 1,
		}
		if w.Tracer != nil {
			req.TC = w.Tracer.ContextFor(req.ID) // a pure hash of the ID
		}
		if r.st.Inject(pe, req, cycle) {
			if w.Profiler != nil {
				w.Profiler.ProfIssue(pe, 0, op, linear, req.Addr)
			}
			if measuring {
				res.Injected++
			}
		}
	}
}

// collect is the rest of a cycle after the network moved. The memory
// side first: each module, in module order, finishes its access in
// progress, then an idle one takes its next arrival (timestamped here for
// the one-way transit measurement); an idle module with no arrival
// waiting has nothing to do. Then each PE, in PE order, collects its
// replies.
func (r *runner) collect(cycle int64) {
	st, res := r.st, &r.res
	for mm, mod := range r.bank.Modules {
		if mod.Idle() && !r.net.MMWaiting(mm) {
			continue
		}
		mod.Step(cycle, r.ports[mm])
		if mod.Idle() {
			if req, ok := st.MMDequeue(mm); ok {
				if req.Issued >= r.warmup {
					res.OneWay.Observe(float64(cycle - req.Issued))
				}
				mod.Accept(req, cycle)
			}
		}
	}

	for pe := range r.peRng {
		for _, rep := range st.Collect(pe, cycle) {
			if rep.Issued >= r.warmup {
				res.RoundTrip.Observe(float64(cycle - rep.Issued))
			}
		}
	}
}

// replyPort adapts the network MM side for module replies; Dequeue is
// unused because the runner pulls arrivals itself to timestamp them.
type replyPort struct {
	net *network.Network
	mm  int
}

func (p replyPort) Dequeue() (msg.Request, bool) { return msg.Request{}, false }
func (p replyPort) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }
