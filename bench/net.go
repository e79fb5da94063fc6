package main

import (
	"fmt"
	"io"
	"time"

	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/sim"
	"ultracomputer/internal/trace"
)

// The machine every simulator workload runs on: k=2, 6 stages (64
// ports), d=1, combining on, hashing on, MM latency 2, serial engine.
var benchNet = network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}

// Op size of the net-* workloads, in network cycles. Fixed constants,
// identical on every commit: an op must stay short enough that one run
// times a few hundred of them.
const (
	netWarmup   = 200
	netMeasure  = 500
	netRate     = 0.20
	recorderCap = 1 << 16
)

// netKind selects one of the three synthetic-traffic workloads.
type netKind int

const (
	netUniform netKind = iota
	netHotspot
	netObserved
)

// netWorkload generates the traffic description from the seed. The
// product sees only the returned struct.
func netWorkload(kind netKind, seed uint64) trace.Workload {
	rng := sim.NewRand(seed)
	w := trace.Workload{Rate: netRate, Hash: true, Seed: rng.Uint64() | 1}
	if kind == netHotspot {
		w.HotFraction = 0.10
		w.HotWord = int64(rng.Intn(1 << 20))
		w.LoadFrac, w.StoreFrac = 0.5, 0.2
	}
	return w
}

// netSim is the simulated outcome of one op: the scalar fields of
// trace.Result, compared exactly between paths, ops and golden.json.
type netSim struct {
	Offered    int64   `json:"offered"`
	Injected   int64   `json:"injected"`
	Served     int64   `json:"served"`
	Combines   int64   `json:"combines"`
	Throughput float64 `json:"throughput"`
	RTP50      float64 `json:"rt_p50"`
	RTP99      float64 `json:"rt_p99"`
	OneWay     float64 `json:"one_way_mean"`
	RoundTrip  float64 `json:"round_trip_mean"`
	QueueLen   float64 `json:"queue_len_mean"`
}

func simOf(r trace.Result) netSim {
	return netSim{
		Offered: r.Offered, Injected: r.Injected, Served: r.Served, Combines: r.Combines,
		Throughput: r.Throughput, RTP50: r.RTP50, RTP99: r.RTP99,
		OneWay: r.OneWay.Value(), RoundTrip: r.RoundTrip.Value(), QueueLen: r.QueueLen.Mean(),
	}
}

// netCounts are the layer counts the phase driver takes at the
// boundaries it times, over the whole op (warm-up included).
type netCounts struct {
	cycles, offered, injected, served int64
	busyModuleCycles                  int64
}

// obsKit is the instrumentation of one net-observed op, as `netperf
// -trace -reqtrace 1 -prof` attaches it. The recorder ring is allocated
// in set-up and reset between ops; the rest is made per op, as per run.
type obsKit struct {
	rec     *obs.Recorder
	sampler *obs.Sampler
	tracer  *reqtrace.Tracer
	prof    *prof.Profiler
}

func (k *obsKit) attach(w trace.Workload) trace.Workload {
	k.sampler = obs.NewSampler(64)
	k.tracer = reqtrace.New(reqtrace.Config{Rate: 1})
	k.prof = prof.New(prof.Config{PEs: benchNet.Ports()})
	w.Probe, w.Sampler, w.Tracer, w.Profiler = k.rec, k.sampler, k.tracer, k.prof
	return w
}

// export writes every export format the kit feeds to io.Discard.
func (k *obsKit) export() error {
	if err := obs.WriteChromeTrace(io.Discard, k.rec.Events()); err != nil {
		return err
	}
	if err := k.tracer.WriteSpansJSONL(io.Discard); err != nil {
		return err
	}
	return k.prof.WritePprof(io.Discard)
}

// mmReply is the memory.Port the phase driver hands each module: the
// driver dequeues arrivals itself, as trace.RunEngine does.
type mmReply struct {
	net *network.Network
	mm  int
}

func (p mmReply) Dequeue() (msg.Request, bool) { return msg.Request{}, false }
func (p mmReply) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }

// Span names of the phase driver.
const (
	spGen     = "trace.gen_inject"
	spNetStep = "network.step"
	spMemStep = "memory.step"
	spCollect = "network.collect"
)

// phaseRun is the benchmark's own cycle driver: a line-for-line mirror
// of trace.RunEngine's loop on the serial engine, written over the
// public stepping API so that each phase can be timed from here. For
// the same inputs it must return exactly what trace.Run returns; every
// traced op is checked against that. sp may be nil (no spans); parent
// is the op's span.
func phaseRun(cfg network.Config, w trace.Workload, warmup, measure int64, sp *spanRec, parent int32, nc *netCounts) trace.Result {
	if w.Words == 0 {
		w.Words = 1 << 20
	}
	if w.MMLatency == 0 {
		w.MMLatency = 2
	}
	net := network.New(cfg)
	n := net.Ports()
	var hash memory.Hasher = memory.Interleave{N: n}
	if w.Hash {
		hash = memory.MultHash{N: n}
	}
	bank := memory.NewBank(n, w.MMLatency, hash)
	if w.Probe != nil {
		net.SetProbe(w.Probe)
		bank.SetProbe(w.Probe)
	}
	if w.Tracer != nil {
		net.SetTracer(w.Tracer)
		bank.SetTracer(w.Tracer)
	}
	profiling := w.Profiler != nil && w.Profiler.Enabled()
	if profiling {
		w.Profiler.SetMMs(len(bank.Modules))
		bank.SetProfiler(w.Profiler)
		net.SetProfiler(w.Profiler.NetShard(0))
	}
	st := network.NewStepper(net, nil)
	ports := make([]memory.Port, n)
	for mm := range ports {
		ports[mm] = mmReply{net, mm}
	}

	rng := sim.NewRand(w.Seed)
	peRng := make([]*sim.Rand, n)
	for i := range peRng {
		peRng[i] = rng.Fork()
	}

	var res trace.Result
	res.PerModuleServed = make([]int64, n)
	res.QueueLen = sim.NewHistogram(64)
	servedBefore := make([]int64, n)
	seq := make([]uint64, n)
	issueCycle := make([]map[uint64]int64, n)
	for pe := range issueCycle {
		issueCycle[pe] = make(map[uint64]int64)
	}

	var t0, t1, t2, t3, t4 int64

	total := warmup + measure
	combinesBefore := int64(0)
	for cycle := int64(0); cycle < total; cycle++ {
		if cycle == warmup {
			combinesBefore = net.Stats().Combines.Value()
			for mm, mod := range bank.Modules {
				servedBefore[mm] = mod.Served.Value()
			}
		}
		measuring := cycle >= warmup

		// Generation and injection.
		t0 = sp.now()
		for pe := 0; pe < n; pe++ {
			r := peRng[pe]
			if !r.Bernoulli(w.Rate) {
				continue
			}
			nc.offered++
			if measuring {
				res.Offered++
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
				Addr: hash.Map(linear), Operand: 1, Issued: cycle,
			}
			if w.Tracer != nil {
				req.TC = w.Tracer.ContextFor(req.ID)
			}
			if st.Inject(pe, req, cycle) {
				nc.injected++
				if profiling {
					w.Profiler.ProfIssue(pe, 0, op, linear, req.Addr)
				}
				if measuring {
					res.Injected++
					issueCycle[pe][req.ID] = cycle
				}
			}
		}
		st.FlushInject()

		// Network movement.
		t1 = sp.now()
		st.Step(cycle)
		t2 = sp.now()
		if measuring && cycle%8 == 0 {
			net.SampleQueues(res.QueueLen)
		}
		if w.Sampler != nil && w.Sampler.Due(cycle) {
			sn := net.Snapshot(cycle)
			bank.Observe(&sn)
			w.Sampler.Record(sn)
		}

		// Memory side.
		for mm, mod := range bank.Modules {
			mod.Step(cycle, ports[mm])
			if mod.Idle() {
				if req, ok := st.MMDequeue(mm); ok {
					if c0, tracked := issueCycle[req.PE][req.ID]; tracked {
						res.OneWay.Observe(float64(cycle - c0))
					}
					mod.Accept(req, cycle)
				}
			}
			if !mod.Idle() {
				nc.busyModuleCycles++
			}
		}
		st.FlushMM()

		// PE side: collect replies.
		t3 = sp.now()
		for pe := 0; pe < n; pe++ {
			for _, rep := range st.Collect(pe, cycle) {
				if c0, tracked := issueCycle[rep.PE][rep.ID]; tracked {
					res.RoundTrip.Observe(float64(cycle - c0))
					delete(issueCycle[rep.PE], rep.ID)
				}
			}
		}
		st.FlushCollect()
		t4 = sp.now()

		// Queue and metrics sampling sits between t2 and the module loop,
		// as in trace.RunEngine, so memory.step carries it.
		sp.add(spGen, parent, t0, t1)
		sp.add(spNetStep, parent, t1, t2)
		sp.add(spMemStep, parent, t2, t3)
		sp.add(spCollect, parent, t3, t4)
	}

	for mm, mod := range bank.Modules {
		res.PerModuleServed[mm] = mod.Served.Value() - servedBefore[mm]
		res.Served += res.PerModuleServed[mm]
		nc.served += mod.Served.Value()
	}
	nc.cycles += total
	res.Combines = net.Stats().Combines.Value() - combinesBefore
	res.Throughput = float64(res.Served) / float64(measure) / float64(n)
	if h := net.Stats().RoundTripHist; h != nil && h.N() > 0 {
		res.RTP50 = float64(h.Quantile(0.50))
		res.RTP99 = float64(h.Quantile(0.99))
	}
	return res
}

// netInstance is one set-up of a net-* workload.
type netInstance struct {
	kind netKind
	w    trace.Workload
	want netSim // this seed's outcome, from the phase driver
	kit  *obsKit

	last   trace.Result // keeps the last op's result reachable
	counts netCounts    // traced ops only
}

func (k netKind) name() string {
	return [...]string{"net-uniform", "net-hotspot", "net-observed"}[k]
}

func setupNet(kind netKind, seed uint64, g *golden) (instance, error) {
	in := &netInstance{kind: kind, w: netWorkload(kind, seed)}
	if kind == netObserved {
		in.kit = &obsKit{rec: obs.NewRecorder(recorderCap)}
		// Touch the ring so its pages are resident before the first op.
		for i := 0; i < recorderCap; i++ {
			in.kit.rec.Emit(obs.Event{})
		}
		in.kit.rec.Reset()
	}
	// Golden and warm-up op: the pinned seed through the product's own
	// entry point.
	gw := netWorkload(kind, goldenSeed)
	if in.kit != nil {
		gw = in.kit.attach(gw)
	}
	got := simOf(trace.Run(benchNet, gw, netWarmup, netMeasure))
	if err := checkPinned(g.update, g.Net, kind.name(), got); err != nil {
		return nil, err
	}
	// Reference for this seed through the other path: the bare phase
	// driver. Instrumentation must not change the simulated outcome, so
	// it is the reference for net-observed too.
	in.want = simOf(phaseRun(benchNet, in.w, netWarmup, netMeasure, nil, -1, new(netCounts)))
	return in, nil
}

func (in *netInstance) close() {}

func (in *netInstance) op(_ int, sp *spanRec) (opResult, error) {
	w := in.w
	if in.kit != nil {
		in.kit.rec.Reset()
	}
	var got netSim
	var wall time.Duration
	if sp == nil {
		t := time.Now()
		if in.kit != nil {
			w = in.kit.attach(w)
		}
		in.last = trace.Run(benchNet, w, netWarmup, netMeasure)
		wall = time.Since(t)
		got = simOf(in.last)
	} else {
		if in.kit != nil {
			// The bare driver first: its total is what the instrumented
			// total is compared against (obs.ns_per_cycle).
			id := sp.begin("bench.plain_driver", -1)
			plain := simOf(phaseRun(benchNet, in.w, netWarmup, netMeasure, nil, -1, new(netCounts)))
			sp.end(id)
			if plain != in.want {
				return opResult{}, fmt.Errorf("bare phase driver: got %+v, want %+v", plain, in.want)
			}
		}
		t := time.Now()
		id := sp.begin("bench.op", -1)
		if in.kit != nil {
			w = in.kit.attach(w)
		}
		in.last = phaseRun(benchNet, w, netWarmup, netMeasure, sp, id, &in.counts)
		sp.end(id)
		wall = time.Since(t)
		got = simOf(in.last)
	}
	if got != in.want {
		return opResult{}, fmt.Errorf("simulated outcome differs between trace.Run and the phase driver: got %+v, want %+v", got, in.want)
	}
	if got.Served > got.Injected+int64(benchNet.Ports())*netWarmup || got.Injected > got.Offered || got.Served == 0 {
		return opResult{}, fmt.Errorf("implausible counts %+v", got)
	}
	return opResult{cycles: netWarmup + netMeasure, wall: wall}, nil
}

func (in *netInstance) layers(tr *spanRec, m map[string]float64) error {
	c := in.counts
	if c.cycles == 0 {
		return fmt.Errorf("no traced op ran")
	}
	cyc := float64(c.cycles)
	m["trace.gen_inject_ns_per_cycle"] = float64(tr.self[spGen]) / cyc
	m["network.step_ns_per_cycle"] = float64(tr.self[spNetStep]) / cyc
	m["memory.step_ns_per_cycle"] = float64(tr.self[spMemStep]) / cyc
	m["network.collect_ns_per_cycle"] = float64(tr.self[spCollect]) / cyc
	m["bench.driver_ns_per_cycle"] = float64(tr.self["bench.op"]) / cyc
	ops := float64(tr.count["bench.op"])
	m["network.injected"] = float64(c.injected) / ops
	m["network.inject_refused_frac"] = float64(c.offered-c.injected) / float64(c.offered)
	m["network.combines"] = float64(in.want.Combines)
	m["network.combine_frac"] = float64(in.want.Combines) / float64(in.want.Injected)
	m["network.queue_len_mean"] = in.want.QueueLen
	m["memory.served"] = float64(c.served) / ops
	m["memory.busy_frac"] = float64(c.busyModuleCycles) / (cyc * float64(benchNet.Ports()))
	var servedMax int64
	for _, v := range in.last.PerModuleServed {
		servedMax = max(servedMax, v)
	}
	m["memory.served_skew"] = float64(servedMax) * float64(benchNet.Ports()) / float64(in.last.Served)
	m["network.host_ns_per_request"] = float64(tr.self[spNetStep]+tr.self[spCollect]) / float64(c.served)
	m["sim.cycles"] = netWarmup + netMeasure
	m["sim.throughput"] = in.want.Throughput
	m["sim.rt_p50_cycles"] = in.want.RTP50
	m["sim.rt_p99_cycles"] = in.want.RTP99
	if in.kit != nil {
		total := float64(tr.self["bench.op"]+tr.self[spGen]+tr.self[spNetStep]+tr.self[spMemStep]+tr.self[spCollect]) / cyc
		plain := float64(tr.self["bench.plain_driver"]) / cyc
		events := float64(in.kit.rec.Total())
		m["obs.events"] = events
		m["obs.spans"] = float64(in.kit.tracer.Completed())
		m["obs.ns_per_cycle"] = total - plain
		m["obs.ns_per_event"] = (total - plain) * (netWarmup + netMeasure) / events
		t := time.Now()
		if err := in.kit.export(); err != nil {
			return err
		}
		m["obs.export_ms"] = float64(time.Since(t)) / 1e6
	}
	return nil
}

// analyticNote is the §4.1 prediction printed beside sim.rt_p50_cycles
// on net-uniform: a cross-model check, informational.
func analyticNote() string {
	return fmt.Sprintf("analytic §4.1 round trip at p=%.2f: %.1f cycles", netRate,
		live.ModelFor(benchNet, 0, 0).PredictRT(netRate))
}
