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

	"ultracomputer/internal/engine"
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
	// (default 2).
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
		w.MMLatency = 2
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
	return RunEngine(cfg, w, warmup, measure, nil)
}

// RunEngine is Run executed on an explicit engine (nil means serial).
// Every per-cycle phase — request generation, network movement, module
// service, reply collection — is sharded through eng with the same
// deterministic merge discipline as machine.Step: per-unit scratch,
// replayed in unit order at phase boundaries, so same-seed runs are
// byte-identical under every engine and worker count. The caller owns
// eng and must Close it afterward.
func RunEngine(cfg network.Config, w Workload, warmup, measure int64, eng engine.Engine) Result {
	w = w.withDefaults()
	if eng == nil {
		eng = engine.Serial{}
	}
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
		// Serves and combines reach the profiler on this goroutine, and
		// its per-PE issue shards are owned by the generator's workers.
		w.Profiler.SetMMs(len(bank.Modules))
	}
	net.SetProbe(rec)
	net.SetTracer(tr)
	net.SetProfiler(pr)
	bank.SetProbe(rec)
	bank.SetTracer(tr)
	bank.SetProfiler(pr)
	st := network.NewStepper(net, eng)
	if st.Parallel() {
		bank.Buffered()
	}
	rng := sim.NewRand(w.Seed)
	peRng := make([]*sim.Rand, n)
	burstOn := make([]bool, n)
	for i := range peRng {
		peRng[i] = rng.Fork()
		burstOn[i] = i%2 == 0
	}

	var res Result
	res.PerModuleServed = make([]int64, n)
	res.QueueLen = sim.NewHistogram(64)
	servedBefore := make([]int64, n)

	// Per-unit scratch: each phase writes only its own unit's slots,
	// merged in unit order afterward. Request IDs are pe<<32|seq so
	// every PE mints its own without a shared counter. A message carries
	// its own injection cycle (the network stamps Issued), so transit
	// times need no table here: a request or reply belongs to the
	// measurement window when it was injected in it.
	seq := make([]uint64, n)
	offered := make([]int64, n)
	injected := make([]int64, n)
	rtBuf := make([][]float64, n)                 // round-trips, replayed PE-major
	owBuf := make([][]float64, len(bank.Modules)) // one-ways, replayed MM-major

	// The phase bodies and the modules' ports are built once; they read
	// the cycle in progress from these two variables, set by the loop
	// between phases.
	var cycle int64
	var measuring bool
	ports := make([]memory.Port, len(bank.Modules))
	for mm := range ports {
		ports[mm] = replyPort{net, mm}
	}

	// Generation: each PE offers a request with probability Rate
	// (modulated by the on/off process when Burstiness is set).
	generate := func(lo, hi, _ int) {
		for pe := lo; pe < hi; pe++ {
			r := peRng[pe]
			rate := w.Rate
			if w.Burstiness > 0 {
				if r.Bernoulli(1 / float64(w.Burstiness)) {
					burstOn[pe] = !burstOn[pe]
				}
				if burstOn[pe] {
					rate = 2 * w.Rate
				} else {
					rate = 0
				}
			}
			if !r.Bernoulli(rate) {
				continue
			}
			if measuring {
				offered[pe]++
			}
			var linear int64
			if w.HotFraction > 0 && r.Bernoulli(w.HotFraction) {
				linear = w.HotWord
			} else {
				linear = int64(r.Intn(int(w.Words)))
			}
			op := msg.FetchAdd
			switch u := r.Float64(); {
			case u < w.LoadFrac:
				op = msg.Load
			case u < w.LoadFrac+w.StoreFrac:
				op = msg.Store
			}
			seq[pe]++
			req := msg.Request{
				ID: uint64(pe)<<32 | seq[pe], PE: pe, Op: op,
				Addr:    hash.Map(linear),
				Operand: 1,
			}
			if w.Tracer != nil {
				// ContextFor is a pure hash of the ID — identical
				// sampling under every engine and worker count.
				req.TC = w.Tracer.ContextFor(req.ID)
			}
			if st.Inject(pe, req, cycle) {
				if w.Profiler != nil {
					// Per-PE profiler shard, owned by this worker.
					w.Profiler.ProfIssue(pe, 0, op, linear, req.Addr)
				}
				if measuring {
					injected[pe]++
				}
			}
		}
	}

	// Memory side: let the modules finish in-progress work, then hand
	// each idle module its next arrival (timestamped here for the
	// one-way transit measurement). An idle module with no arrival
	// waiting has nothing to do.
	serve := func(lo, hi, _ int) {
		for mm := lo; mm < hi; mm++ {
			mod := bank.Modules[mm]
			if mod.Idle() && !net.MMWaiting(mm) {
				continue
			}
			mod.Step(cycle, ports[mm])
			if mod.Idle() {
				if req, ok := st.MMDequeue(mm); ok {
					if req.Issued >= warmup {
						owBuf[mm] = append(owBuf[mm], float64(cycle-req.Issued))
					}
					mod.Accept(req, cycle)
				}
			}
		}
	}

	// PE side: collect replies.
	collect := func(lo, hi, _ int) {
		for pe := lo; pe < hi; pe++ {
			for _, rep := range st.Collect(pe, cycle) {
				if rep.Issued >= warmup {
					rtBuf[pe] = append(rtBuf[pe], float64(cycle-rep.Issued))
				}
			}
		}
	}

	total := warmup + measure
	combinesBefore := int64(0)
	for cycle = 0; cycle < total; cycle++ {
		if cycle == warmup {
			combinesBefore = net.Stats().Combines.Value()
			for mm, mod := range bank.Modules {
				servedBefore[mm] = mod.Served.Value()
			}
		}
		measuring = cycle >= warmup

		eng.Run(n, generate)
		st.FlushInject()

		st.Step(cycle)
		if measuring && cycle%8 == 0 {
			net.SampleQueues(res.QueueLen)
		}
		if w.Sampler != nil && w.Sampler.Due(cycle) {
			sn := net.Snapshot(cycle)
			bank.Observe(&sn)
			w.Sampler.Record(sn)
		}

		eng.Run(len(bank.Modules), serve)
		for mm := range owBuf {
			for _, v := range owBuf[mm] {
				res.OneWay.Observe(v)
			}
			owBuf[mm] = owBuf[mm][:0]
		}
		st.FlushMM()
		bank.Flush()

		eng.Run(n, collect)
		for pe := range rtBuf {
			for _, v := range rtBuf[pe] {
				res.RoundTrip.Observe(v)
			}
			rtBuf[pe] = rtBuf[pe][:0]
		}
		st.FlushCollect()
	}

	for pe := 0; pe < n; pe++ {
		res.Offered += offered[pe]
		res.Injected += injected[pe]
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
	return res
}

// replyPort adapts the network MM side for module replies; Dequeue is
// unused because the runner pulls arrivals itself to timestamp them.
type replyPort struct {
	net *network.Network
	mm  int
}

func (p replyPort) Dequeue() (msg.Request, bool) { return msg.Request{}, false }
func (p replyPort) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }
