// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure, plus the ablations DESIGN.md calls out and a few
// micro-benchmarks of the substrates. Reported custom metrics carry the
// figures' actual quantities (transit times, idle fractions,
// efficiencies); ns/op measures the simulation itself.
package ultracomputer

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/apps"
	"ultracomputer/internal/cache"
	"ultracomputer/internal/coord"
	"ultracomputer/internal/experiments"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/para"
	"ultracomputer/internal/pe"
	"ultracomputer/internal/serve"
	"ultracomputer/internal/sim"
	"ultracomputer/internal/trace"
)

// ---------------------------------------------------------------------
// Figure 7 — network transit time vs traffic intensity.
// ---------------------------------------------------------------------

// BenchmarkFigure7Analytic sweeps the §4.1 queueing model over the
// paper's six configurations and reports the duplexed-4×4 transit time
// at p = 0.2 (the configuration the paper declares best).
func BenchmarkFigure7Analytic(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		for _, cfg := range analytic.Figure7Configs(4096) {
			s := analytic.Figure7Series(cfg, 0.35, 35)
			if cfg.K == 4 && cfg.D == 2 {
				best = s.Points[len(s.Points)-1].Y
			}
		}
	}
	b.ReportMetric(analytic.TransitTime(analytic.NetConfig{N: 4096, K: 4, M: 4, D: 2}, 0.2), "T(k4d2,p0.2)")
	_ = best
}

// BenchmarkFigure7Simulated runs the cycle simulator at a moderate load
// and reports the measured one-way transit beside the analytic value for
// the same (scaled-down) machine.
func BenchmarkFigure7Simulated(b *testing.B) {
	cfg := network.Config{K: 2, Stages: 6, Combining: true}
	w := trace.Workload{Rate: 0.1, Hash: true, Seed: 17}
	var measured float64
	for i := 0; i < b.N; i++ {
		r := trace.Run(cfg, w, 1000, 4000)
		measured = r.OneWay.Value()
	}
	model := analytic.NetConfig{N: 64, K: 2, M: 3, D: 1}
	b.ReportMetric(measured, "simT")
	b.ReportMetric(analytic.TransitTime(model, 0.1), "analyticT")
}

// ---------------------------------------------------------------------
// Table 1 — network traffic and performance of the four programs.
// ---------------------------------------------------------------------

func table1Bench(b *testing.B, row func(sizes experiments.Table1Sizes) experiments.Table1Row) {
	sizes := experiments.QuickTable1Sizes
	var r experiments.Table1Row
	for i := 0; i < b.N; i++ {
		r = row(sizes)
	}
	b.ReportMetric(r.AvgCMAccess, "cmAccess")
	b.ReportMetric(r.IdleFrac*100, "idle%")
	b.ReportMetric(r.IdlePerCMLoad, "idle/load")
	b.ReportMetric(r.MemRefPerInstr, "ref/ins")
	b.ReportMetric(r.SharedRefPerInstr, "shared/ins")
}

func BenchmarkTable1Weather16(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Weather(16, s)
	})
}

func BenchmarkTable1Weather48(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Weather(48, s)
	})
}

func BenchmarkTable1TRED2(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Tred2(s)
	})
}

func BenchmarkTable1Multigrid(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Poisson(s)
	})
}

// ---------------------------------------------------------------------
// Tables 2 and 3 — TRED2 efficiencies, measured fit and projection.
// ---------------------------------------------------------------------

// BenchmarkTable2Fit simulates a small (P, N) grid, fits the §5.0 model
// and reports the fitted a/d ratio (the paper's Table 3 pins it at ≈7.2)
// and the measured-corner efficiency E(16,16).
func BenchmarkTable2Fit(b *testing.B) {
	grid := experiments.TredGrid{Ps: []int{1, 4, 8, 16}, Ns: []int{8, 16, 24}}
	var model analytic.TREDModel
	for i := 0; i < b.N; i++ {
		samples := experiments.MeasureTred2(grid)
		model, _, _ = experiments.Tables23(samples)
	}
	b.ReportMetric(model.A/model.D, "a/d")
	b.ReportMetric(100*model.Efficiency(16, 16), "E(16,16)%")
	b.ReportMetric(100*model.Efficiency(64, 64), "E(64,64)%")
}

// BenchmarkTable3Model evaluates the no-waiting projection over the
// paper's grid with the paper-calibrated constants (pure model; fast).
func BenchmarkTable3Model(b *testing.B) {
	var grid [][]float64
	for i := 0; i < b.N; i++ {
		grid = analytic.EfficiencyGrid(analytic.PaperCalibratedModel, false)
	}
	b.ReportMetric(grid[0][0], "E(16,16)%")
	b.ReportMetric(grid[6][4], "E(4096,1024)%")
}

// ---------------------------------------------------------------------
// Ablations — the design choices §3 argues for.
// ---------------------------------------------------------------------

func hotspotCycles(b *testing.B, combining bool) int64 {
	b.Helper()
	cfg := machine.Config{
		Net:     network.Config{K: 2, Stages: 5, Combining: combining},
		Hashing: true,
	}
	m := machine.SPMD(cfg, 32, func(ctx *pe.Ctx) {
		for r := 0; r < 16; r++ {
			ctx.FetchAdd(7, 1)
		}
	})
	return m.MustRun(100_000_000)
}

// BenchmarkAblationCombining measures the hot-spot speedup combining
// provides over the identical non-combining network.
func BenchmarkAblationCombining(b *testing.B) {
	var on, off int64
	for i := 0; i < b.N; i++ {
		on = hotspotCycles(b, true)
		off = hotspotCycles(b, false)
	}
	b.ReportMetric(float64(on), "cyclesCombining")
	b.ReportMetric(float64(off), "cyclesPlain")
	b.ReportMetric(float64(off)/float64(on), "speedup")
}

// BenchmarkAblationQueueSize checks §4.2's claim that modest switch
// queues behave like infinite ones at working loads.
func BenchmarkAblationQueueSize(b *testing.B) {
	w := trace.Workload{Rate: 0.10, Hash: true, Seed: 13}
	var small, big float64
	for i := 0; i < b.N; i++ {
		rs := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 15}, w, 500, 3000)
		rb := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 1000}, w, 500, 3000)
		small, big = rs.OneWay.Value(), rb.OneWay.Value()
	}
	b.ReportMetric(small, "T(q=15)")
	b.ReportMetric(big, "T(q=1000)")
}

// BenchmarkAblationHashing measures module-load skew with and without
// the §3.1.4 address hashing under uniform linear addresses.
func BenchmarkAblationHashing(b *testing.B) {
	skew := func(hash bool) float64 {
		r := trace.Run(network.Config{K: 2, Stages: 4, Combining: true},
			trace.Workload{Rate: 0.1, Hash: hash, Seed: 9}, 500, 3000)
		var total, max int64
		for _, s := range r.PerModuleServed {
			total += s
			if s > max {
				max = s
			}
		}
		if total == 0 {
			return 0
		}
		return float64(max) * float64(len(r.PerModuleServed)) / float64(total)
	}
	var hashed, plain float64
	for i := 0; i < b.N; i++ {
		hashed = skew(true)
		plain = skew(false)
	}
	b.ReportMetric(hashed, "skewHashed")
	b.ReportMetric(plain, "skewPlain")
}

// BenchmarkAblationCopies compares transit time of one network copy vs a
// duplexed network at the same offered load (§4.1's d parameter).
func BenchmarkAblationCopies(b *testing.B) {
	w := trace.Workload{Rate: 0.18, Hash: true, Seed: 23}
	var d1, d2 float64
	for i := 0; i < b.N; i++ {
		r1 := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, Copies: 1}, w, 500, 3000)
		r2 := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, Copies: 2}, w, 500, 3000)
		d1, d2 = r1.OneWay.Value(), r2.OneWay.Value()
	}
	b.ReportMetric(d1, "T(d=1)")
	b.ReportMetric(d2, "T(d=2)")
}

// BenchmarkAblationUnbuffered compares per-PE throughput of the queued
// combining network against the kill-on-conflict unbuffered banyan
// (§3.1.2's rejected alternative) under saturating uniform traffic.
func BenchmarkAblationUnbuffered(b *testing.B) {
	var unbuf float64
	for i := 0; i < b.N; i++ {
		unbuf = network.NewUnbuffered(2, 5, 7).Throughput(1.0, 300)
	}
	b.ReportMetric(unbuf, "unbufferedPerRound")
	b.ReportMetric(network.NewUnbuffered(2, 10, 7).Throughput(1.0, 100), "unbuffered1024ports")
}

// BenchmarkAblationIdealMemory quantifies the whole network's cost: the
// same fetch-and-add workload on the real machine vs the WASHCLOTH-style
// ideal paracomputer memory.
func BenchmarkAblationIdealMemory(b *testing.B) {
	run := func(ideal bool) int64 {
		cfg := machine.Config{
			Net:         network.Config{K: 2, Stages: 5, Combining: true},
			Hashing:     true,
			IdealMemory: ideal,
		}
		m := machine.SPMD(cfg, 16, func(ctx *pe.Ctx) {
			for r := 0; r < 32; r++ {
				ctx.FetchAdd(int64(r%5), 1)
			}
		})
		return m.MustRun(50_000_000)
	}
	var real, ideal int64
	for i := 0; i < b.N; i++ {
		real = run(false)
		ideal = run(true)
	}
	b.ReportMetric(float64(real), "cyclesNetwork")
	b.ReportMetric(float64(ideal), "cyclesIdeal")
	b.ReportMetric(float64(real)/float64(ideal), "networkCost")
}

// BenchmarkAblationMultiprogramming measures §3.5's k-fold latency
// hiding: idle fraction of a latency-bound workload at stream counts 1,
// 2 and 4 on one PE.
func BenchmarkAblationMultiprogramming(b *testing.B) {
	idleAt := func(k int) float64 {
		cores := make([]pe.Core, k)
		for s := 0; s < k; s++ {
			base := int64(s * 1000)
			cores[s] = pe.NewGoCore(func(ctx *pe.Ctx) {
				for i := int64(0); i < 48; i++ {
					ctx.Load(base + i)
					ctx.Compute(1)
				}
			})
		}
		cfg := machine.Config{
			Net:     network.Config{K: 2, Stages: 4, Combining: true},
			Hashing: true,
			PEs:     1,
		}
		m := machine.New(cfg, []pe.Core{pe.NewMultiCore(cores...)})
		m.MustRun(50_000_000)
		return m.Report().IdleFrac
	}
	var i1, i2, i4 float64
	for i := 0; i < b.N; i++ {
		i1, i2, i4 = idleAt(1), idleAt(2), idleAt(4)
	}
	b.ReportMetric(i1*100, "idle%k1")
	b.ReportMetric(i2*100, "idle%k2")
	b.ReportMetric(i4*100, "idle%k4")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkNetworkCycle measures raw simulation speed: one cycle of the
// network's own driver, steady state, zero allocations.
//
//	loaded  64-port combining network, every PE offering a uniform
//	        fetch-and-add with p = 0.2 each cycle (the Figure 7 reference
//	        point), modules served (latency 2) and replies collected
//	idle    the paper's 4096-port machine with nothing in flight: what a
//	        cycle costs when the activity flags skip everything
func BenchmarkNetworkCycle(b *testing.B) {
	b.Run("loaded", func(b *testing.B) {
		net := network.New(network.Config{K: 2, Stages: 6, Combining: true})
		st := network.NewStepper(net, nil)
		n := net.Ports()
		bank := memory.NewBank(n, 2, memory.Interleave{N: n})
		ports := make([]memory.Port, n)
		for mm := range ports {
			ports[mm] = benchPort{net, st, mm}
		}
		rng := sim.NewRand(3)
		seq := make([]uint64, n)
		cycle := int64(0)
		step := func() {
			for pe := 0; pe < n; pe++ {
				if !rng.Bernoulli(0.2) {
					continue
				}
				seq[pe]++
				st.Inject(pe, msg.Request{
					ID: uint64(pe)<<32 | seq[pe], PE: pe, Op: msg.FetchAdd,
					Addr: msg.Addr{MM: rng.Intn(n), Word: rng.Intn(64)}, Operand: 1,
				}, cycle)
			}
			st.Step(cycle)
			for mm, mod := range bank.Modules {
				mod.Step(cycle, ports[mm])
			}
			for pe := 0; pe < n; pe++ {
				st.Collect(pe, cycle)
			}
			cycle++
		}
		// Warm up: queues, maps and scratch reach their steady capacity.
		for i := 0; i < 20_000; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.StopTimer()
		if net.Stats().RepliesDelivered.Value() == 0 {
			b.Fatal("no traffic flowed")
		}
	})
	b.Run("idle", func(b *testing.B) {
		st := network.NewStepper(network.New(network.Config{K: 4, Stages: 6, Combining: true}), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Step(int64(i))
		}
	})
}

// benchPort is the memory.Port of one module in BenchmarkNetworkCycle.
type benchPort struct {
	net *network.Network
	st  *network.Stepper
	mm  int
}

func (p benchPort) Dequeue() (msg.Request, bool) { return p.st.MMDequeue(p.mm) }
func (p benchPort) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }

// netOp is one op of the repository benchmark's net-uniform and
// net-hotspot workloads (bench/net.go: benchNet, netWorkload and the op
// sizes, restated here because bench/ is a main package) as a plain Go
// benchmark, so that -cpuprofile, -memprofile and interleaved test
// binaries work on it: k = 2, combining and hashing on, every PE offering
// p = 0.20, 200 warm-up + 500 measured cycles through trace.Run. It also
// reports the op's host time per hop — one message crossing one link: a
// request crosses stages+1 links and so does its reply, and the op injects
// at the measured window's rate throughout.
//
// observe, when not nil, runs before every op: it attaches what an
// observed op makes anew each time.
func netOp(b *testing.B, stages int, w trace.Workload, observe func(*trace.Workload)) {
	const warmup, measure = 200, 500
	cfg := network.Config{K: 2, Stages: stages, Copies: 1, Combining: true}
	w.Rate, w.Hash, w.Seed = 0.20, true, 1001
	b.ReportAllocs()
	var r trace.Result
	for i := 0; i < b.N; i++ {
		if observe != nil {
			observe(&w)
		}
		r = trace.Run(cfg, w, warmup, measure)
	}
	if r.Served == 0 || r.RoundTrip.N() == 0 {
		b.Fatalf("no traffic flowed: %v", r)
	}
	b.ReportMetric(r.RoundTrip.Value(), "rtCycles")
	hops := float64(r.Injected) * (warmup + measure) / measure * 2 * float64(stages+1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/hops, "ns/hop")
}

// BenchmarkNetUniformOp is the Figure 7 reference point on the benchmark's
// 64-port machine: uniform fetch-and-adds. `make prof-host` profiles it.
func BenchmarkNetUniformOp(b *testing.B) { netOp(b, 6, trace.Workload{}, nil) }

// BenchmarkNetHotspotOp sends 10 % of the references to one word, as 50 %
// loads, 20 % stores and 30 % fetch-and-adds (§3.1.2): combining, wait
// buffers and decombining.
func BenchmarkNetHotspotOp(b *testing.B) {
	netOp(b, 6, trace.Workload{HotFraction: 0.10, HotWord: 424242, LoadFrac: 0.5, StoreFrac: 0.2}, nil)
}

// BenchmarkNetObservedOp is the uniform op with everything attached, as
// the repository benchmark's net-observed workload attaches it
// (bench/net.go: obsKit): one recorder ring of 1 << 16 events reset per
// op, and per op a sampler every 64 cycles, a request tracer at rate 1
// and a profiler. `make prof-host B=NetObservedOp` names where an
// observed cycle goes.
func BenchmarkNetObservedOp(b *testing.B) {
	rec := obs.NewRecorder(1 << 16)
	netOp(b, 6, trace.Workload{}, func(w *trace.Workload) {
		rec.Reset()
		w.Probe = rec
		w.Sampler = obs.NewSampler(64)
		w.Tracer = reqtrace.New(reqtrace.Config{Rate: 1})
		w.Profiler = prof.New(prof.Config{PEs: 64})
	})
}

// spmdKernel is the benchmark's guest kernel (bench/testdata/spmd.s, whose
// fields bench/guest.go draws from the seed) with fixed constants and the
// given iteration count.
func spmdKernel(b *testing.B, iters int) string {
	tmpl, err := os.ReadFile("bench/testdata/spmd.s")
	if err != nil {
		b.Fatal(err)
	}
	return strings.NewReplacer(
		"{{ITERS}}", strconv.Itoa(iters), "{{MUL}}", "7", "{{ADD}}", "13", "{{COUNTER}}", "64",
		"{{SPAN}}", "128", "{{CBASE}}", "4096", "{{LMASK}}", "511", "{{CWORDS}}", "64",
		"{{PHASE}}", "5",
	).Replace(string(tmpl))
}

// guestOp is one op of the repository benchmark's guest workloads
// (bench/guest.go: guestConfig, guestCache and guestRun, restated here
// because bench/ is a main package) as a plain Go benchmark: the kernel of
// bench/testdata/spmd.s with fixed constants in its fields, iters
// iterations on each of 64 PEs with a 16×2×4 cache, through Load, Run and
// Report.
func guestOp(b *testing.B, iters int, ideal bool) {
	prog, err := isa.Assemble(spmdKernel(b, iters))
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.Config{
		Net: network.Config{K: 2, Stages: 6, Copies: 1, Combining: true},
		PEs: 64, Hashing: true, IdealMemory: ideal,
	}
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, _, err := machine.Load(cfg, prog, machine.LoadOptions{
			Cache: &cache.Config{Sets: 16, Ways: 2, BlockWords: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, done := m.Run(10_000_000); !done {
			b.Fatal("kernel not halted")
		}
		if _, err := m.Report().JSON(); err != nil {
			b.Fatal(err)
		}
		// Every PE publishes once per 64 iterations.
		if got, want := m.ReadShared(64), int64(iters/64*64); got != want {
			b.Fatalf("shared counter = %d, want %d", got, want)
		}
		cycles = m.Cycles()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
}

// BenchmarkGuestIdealOp is the guest-ideal op (guestIdealIters = 1 024
// iterations under IdealMemory). The network and the MMs are bypassed, so
// a profile of it (`make prof-host B=GuestIdealOp`) names where a PE
// tick's host time goes: isa.Core.Tick, the cache, pe.PE.
func BenchmarkGuestIdealOp(b *testing.B) { guestOp(b, 1024, true) }

// BenchmarkGuestSpmdOp is the guest-spmd op (guestSpmdIters = 64
// iterations through the real network and MMs): the ultrasim path, PNI
// and reply delivery included.
func BenchmarkGuestSpmdOp(b *testing.B) { guestOp(b, 64, false) }

// BenchmarkMachineLoad is what a machine costs before its first cycle:
// Load of the benchmark kernel with the benchmark's cache at k = 4, six
// stages (4096 ports), on 64 PEs and on the paper's 4096. B/op is the
// footprint figure ROADMAP item 7 quotes; it is a benchmark so that
// tier-1 never builds the 4096-port network.
func BenchmarkMachineLoad(b *testing.B) {
	prog, err := isa.Assemble(spmdKernel(b, 64))
	if err != nil {
		b.Fatal(err)
	}
	for _, pes := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			cfg := machine.Config{
				Net: network.Config{K: 4, Stages: 6, Copies: 1, Combining: true},
				PEs: pes, Hashing: true,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := machine.Load(cfg, prog, machine.LoadOptions{
					Cache: &cache.Config{Sets: 16, Ways: 2, BlockWords: 4},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeSessionOp is one session lifecycle of the repository
// benchmark's serve-lifecycle workload without the HTTP around it
// (bench/serve.go's 16-PE shape restated: k = 2, 4 stages, a 16×2×4 cache,
// 32 iterations of bench/testdata/spmd.s with fixed constants): create
// with the config staged, commit, start on the shared scheduler, wait for
// done, fetch the report, delete. `make prof-host B=ServeSessionOp` names
// where a session's host time goes — validation, Build, the observation
// kit, the scheduler's slices, the report.
func BenchmarkServeSessionOp(b *testing.B) {
	cfg := serve.Config{
		Name: "bench-op", K: 2, Stages: 4, PEs: 16, Limit: 5_000_000,
		Cache:   &serve.CacheConfig{Sets: 16, Ways: 2, BlockWords: 4},
		Program: spmdKernel(b, 32),
	}
	svc := serve.NewService(serve.Limits{})
	defer svc.Drain()
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		s, err := svc.CreateSession(cfg.Name)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.StageCandidate(cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := s.CommitCandidate(""); err != nil {
			b.Fatal(err)
		}
		if err := s.StartRun(); err != nil {
			b.Fatal(err)
		}
		// Sleep, not spin: a polling loop would be the top of the profile.
		info := s.Info()
		for ; info.State == serve.StateRunning; info = s.Info() {
			time.Sleep(50 * time.Microsecond)
		}
		if info.State != serve.StateDone || !info.Halted {
			b.Fatalf("session ended %s (halted %v): %s", info.State, info.Halted, info.Error)
		}
		if rep, err := s.ReportJSON(); err != nil || len(rep) == 0 {
			b.Fatalf("report: %d bytes, %v", len(rep), err)
		}
		if err := svc.DeleteSession(s.ID()); err != nil {
			b.Fatal(err)
		}
		cycles = info.Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
}

// BenchmarkNetHopCost runs the uniform op on 4 to 256 ports. If the cost
// of a hop were cache misses on the link records, ns/hop would rise with
// the size of the machine; it does not (DESIGN.md, "Link records and
// activity flags").
func BenchmarkNetHopCost(b *testing.B) {
	for stages := 2; stages <= 8; stages++ {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) { netOp(b, stages, trace.Workload{}, nil) })
	}
}

// BenchmarkParaFetchAdd measures the ideal paracomputer's fetch-and-add
// under goroutine contention.
func BenchmarkParaFetchAdd(b *testing.B) {
	mem := para.NewMemory()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mem.FetchAdd(0, 1)
		}
	})
}

// BenchmarkParaQueue measures insert+delete pairs through the appendix
// queue on the ideal paracomputer.
func BenchmarkParaQueue(b *testing.B) {
	mem := para.NewMemory()
	q := coord.NewQueue(mem, 0, 1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Insert(1)
			q.Delete()
		}
	})
}

// BenchmarkMachineFetchAdd measures the simulated cost of one
// fetch-and-add round trip on an otherwise idle machine.
func BenchmarkMachineFetchAdd(b *testing.B) {
	cfg := machine.Config{Net: network.Config{K: 2, Stages: 4, Combining: true}, Hashing: true}
	for i := 0; i < b.N; i++ {
		m := machine.SPMD(cfg, 1, func(ctx *pe.Ctx) {
			for r := 0; r < 64; r++ {
				ctx.FetchAdd(int64(r), 1)
			}
		})
		m.MustRun(10_000_000)
	}
}

// BenchmarkTred2Machine measures end-to-end simulation speed of the
// parallel TRED2 at a small size.
func BenchmarkTred2Machine(b *testing.B) {
	a := experiments.RandSym(16, 3)
	for i := 0; i < b.N; i++ {
		m, _ := apps.NewTred2Machine(experiments.PaperMachine(), 8, a, apps.DefaultTred2Cost)
		m.MustRun(1_000_000_000)
	}
}
