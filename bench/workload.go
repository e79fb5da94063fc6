package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// opResult is what one timed op hands back: the simulated cycles it
// covered and the wall time of the product call(s), checks excluded.
type opResult struct {
	cycles int64
	wall   time.Duration
}

// instance is one set-up of a workload, ready to run ops.
type instance interface {
	// op runs one op as closed-loop client c and checks its output; a
	// non-nil error is an op failure. With sp non-nil it takes the
	// traced path and records its spans there.
	op(c int, sp *spanRec) (opResult, error)
	// layers fills the per-layer metrics from the folded spans of the
	// traced ops.
	layers(tr *spanRec, m map[string]float64) error
	close()
}

// workload is one named set of inputs.
type workload struct {
	name    string
	why     string // one line, repeated in BENCHMARK.json
	bypass  string // the layers it leaves idle
	clients int    // closed-loop goroutines
	setup   func(seed uint64, g *golden) (instance, error)
}

// workloads lists the benchmark's workloads in the order they run.
var workloads = []workload{
	{
		name:    "net-uniform",
		why:     "uniform fetch-and-add traffic at p=0.20 through trace.Run: the Figure 7 reference point; network pass-through and MM service do all the work",
		bypass:  "pe, isa, cache, obs, serve",
		clients: 1,
		setup:   func(s uint64, g *golden) (instance, error) { return setupNet(netUniform, s, g) },
	},
	{
		name:    "net-hotspot",
		why:     "same machine and rate with 10% of references to one hot word and a load/store/F&A mix: combining, wait buffers and decombining (§3.1.2)",
		bypass:  "pe, isa, cache, obs, serve",
		clients: 1,
		setup:   func(s uint64, g *golden) (instance, error) { return setupNet(netHotspot, s, g) },
	},
	{
		name:    "net-observed",
		why:     "net-uniform with recorder, sampler, reqtrace at rate 1 and the profiler attached: observability does most of the work; guards merging the three channels",
		bypass:  "pe, isa, cache, serve",
		clients: 1,
		setup:   func(s uint64, g *golden) (instance, error) { return setupNet(netObserved, s, g) },
	},
	{
		name:    "guest-spmd",
		why:     "generated SPMD kernel on 64 PEs through machine.Load/Run/Report, the ultrasim path: the network is nearly idle yet is most of the cost",
		bypass:  "obs, serve",
		clients: 1,
		setup:   func(s uint64, g *golden) (instance, error) { return setupGuest(false, s, g) },
	},
	{
		name:    "guest-ideal",
		why:     "the same kernel with IdealMemory (§2.1 paracomputer): network and MMs bypassed, so pe/isa/cache do the work; a network change must read no change",
		bypass:  "network, memory (timing), obs, serve",
		clients: 1,
		setup:   func(s uint64, g *golden) (instance, error) { return setupGuest(true, s, g) },
	},
	{
		name:    "serve-lifecycle",
		why:     "closed loop of min(2,nproc) HTTP clients driving sessions create→commit→start→poll→report→delete on a loopback ultraserve; validation, Build, scheduling, HTTP",
		bypass:  "none (small machines: the network is a minor share)",
		clients: serveClients(),
		setup:   func(s uint64, _ *golden) (instance, error) { return setupServe(s) },
	},
}

// leftOut are the rows the benchmark does not have, printed by -list.
var leftOut = []string{
	"parallel engine: on 2 shared vCPUs its spin-then-yield barrier measures the host scheduler, not the simulator",
	"256-port network: measured 5.6x the 64-port cost against a 5.33x switch-count ratio — same per-switch cost, no cache cliff, so it would repeat net-uniform at a fifth of the samples",
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts are the settings of one workload run.
type runOpts struct {
	seed    uint64
	seconds float64 // how long timed ops are started for
	traced  bool
	// setupReps is how often the run sets the workload up: setup_s is
	// the median, so one slow start does not decide it.
	setupReps int
}

const defaultSetupReps = 7

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the outcome of one workload run: the line the contract asks
// for plus the detail -compare and a reader want beside it.
type run struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Ops gives min, quartiles and count of the per-op figures the
	// host-time medians are taken over.
	Ops    map[string]summary `json:"ops"`
	Errors []string           `json:"errors,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
	Env    env                `json:"env"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type opSample struct {
	opResult
	traced bool
	ref    time.Duration // the yardstick, run just before the op
}

// The yardstick. Host time on this kind of machine (a small VM on a
// shared host) drifts by 10–25 % over seconds to minutes with the memory
// system's load, far more than the effects the benchmark must resolve,
// and the drift is common to everything that misses cache: sizing runs
// showed 15-s medians of an op moving with those of a dependent
// random-access loop over 8 MiB (correlation 0.7–0.85) while a
// register-only loop stayed flat. So every op is preceded by refSteps
// steps of that loop, and the op's host cost is reported relative to
// it: how many yardstick steps take as long as one simulated cycle.
// The yardstick lives in bench/, so it is the same code on every
// commit, and it costs about 1 ms per op.
const (
	refWords = 1 << 20 // 8 MiB of uint64
	refSteps = 1 << 16
)

// yardstick is one client's instance of the loop. The walk continues
// from run to run: a walk restarted from the same state would revisit
// the same lines, and how many of them the op in between had left in
// cache would leak the op's footprint into the yardstick's speed.
type yardstick struct {
	buf []uint64
	x   uint64
}

func newYardstick() *yardstick {
	y := &yardstick{buf: make([]uint64, refWords), x: 88172645463325252}
	for i := range y.buf {
		y.buf[i] = uint64(i) // touch the pages
	}
	return y
}

// run times refSteps steps.
func (y *yardstick) run() time.Duration {
	t := time.Now()
	x, buf := y.x, y.buf
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[(x>>40)&(refWords-1)] += x
	}
	y.x = x
	return time.Since(t)
}

// runWorkload sets w up, runs ops for the given time and computes the
// metrics: the end-to-end ones untraced, the per-layer ones traced.
func runWorkload(w workload, o runOpts, g *golden, spansOut *spanRec) run {
	r := run{
		Workload: w.name, Trace: o.traced, Seed: o.seed, Seconds: o.seconds,
		Metrics: map[string]metric{}, Ops: map[string]summary{},
		Env: readEnv(),
	}
	fail := func(err error) run {
		r.Errors = append(r.Errors, err.Error())
		r.Correct = false
		r.Env.LoadavgEnd = loadavg()
		return r
	}

	// Set-up, several times over; the last instance runs the ops.
	var inst instance
	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t := time.Now()
		var err error
		inst, err = w.setup(o.seed, g)
		if err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()

	clients := w.clients
	samples := make([][]opSample, clients)
	recs := make([]*spanRec, clients)
	refs := make([]*yardstick, clients)
	for c := range refs {
		refs[c] = newYardstick()
		if o.traced {
			recs[c] = newSpanRec()
		}
	}
	var mu sync.Mutex // guards r.Errors and failed below
	failed := 0

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// In a traced run every other op is untraced: the pair gives
			// the tracing overhead from within one run. At least one
			// such pair runs however short the window.
			for i := 0; i < 2 || time.Now().Before(deadline); i++ {
				var sp *spanRec
				if o.traced && i%2 == 1 {
					sp = recs[c]
				}
				ref := refs[c].run()
				res, err := inst.op(c, sp)
				if sp != nil {
					sp.fold()
				}
				if err != nil {
					mu.Lock()
					failed++
					if len(r.Errors) < 5 {
						r.Errors = append(r.Errors, err.Error())
					}
					mu.Unlock()
					continue
				}
				samples[c] = append(samples[c], opSample{res, sp != nil, ref})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	refs = nil // the yardstick's buffers are not the workload's heap
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(inst)

	var all []opSample
	for _, s := range samples {
		all = append(all, s...)
	}
	r.Attempted, r.Failed = len(all)+failed, failed
	r.Correct = failed == 0 && len(all) > 0
	r.Env.LoadavgEnd = loadavg()
	if len(all) == 0 {
		return fail(fmt.Errorf("no op completed in %.1f s", o.seconds))
	}

	// Per-op figures, untraced and traced ops apart.
	var cycles int64
	cost, wallNs := map[bool][]float64{}, map[bool][]float64{}
	var opMs, refStepNs []float64
	for _, s := range all {
		cycles += s.cycles
		perCycle := float64(s.wall) / float64(s.cycles)
		step := float64(s.ref) / refSteps
		cost[s.traced] = append(cost[s.traced], perCycle/step)
		wallNs[s.traced] = append(wallNs[s.traced], perCycle)
		refStepNs = append(refStepNs, step)
		if !s.traced {
			opMs = append(opMs, float64(s.wall)/1e6)
		}
	}
	host := summarize(cost[false])
	r.Ops["host_cost_per_cycle"] = host
	r.Ops["wall_ns_per_cycle"] = summarize(wallNs[false])
	r.Ops["op_ms"] = summarize(opMs)
	r.Ops["ref_step_ns"] = summarize(refStepNs)
	r.Ops["setup_s"] = summarize(setups)

	if !o.traced {
		kc := float64(cycles) / 1000
		r.Metrics["setup_s"] = metric{r.Ops["setup_s"].Median, "s"}
		// The lower quartile, not the median: interference only ever
		// adds time, so the low side of the distribution is both
		// closer to the code's own cost and steadier from run to run
		// (sizing runs: spread 5 % against the median's 8 %).
		r.Metrics["host_cost_per_cycle"] = metric{host.Q1, "refs/cycle"}
		r.Metrics["allocs_per_kcycle"] = metric{float64(m1.Mallocs-m0.Mallocs) / kc, "1/kcycle"}
		r.Metrics["bytes_per_kcycle"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / kc, "B/kcycle"}
		r.Metrics["heap_live_mb"] = metric{float64(m2.HeapAlloc) / (1 << 20), "MiB"}
		r.Notes = append(r.Notes, fmt.Sprintf("wall time, for information (no bound: it drifts with the host): %.6g ns/cycle median, op %.4g ms median, %.4g ms p95, %.4g ops/s",
			r.Ops["wall_ns_per_cycle"].Median, r.Ops["op_ms"].Median, percentile(opMs, 0.95), float64(len(all))/elapsed))
		if p := tailLevel(len(opMs)); p < 0.95 {
			r.Notes = append(r.Notes, fmt.Sprintf("the p95 above has fewer than %d of %d samples beyond it; the highest percentile that has is p%g", tailSamples, len(opMs), p*100))
		}
	} else {
		tr := newSpanRec()
		for _, rec := range recs {
			tr.merge(rec)
		}
		layers := map[string]float64{}
		for _, d := range perLayer {
			layers[d.Name] = 0
		}
		if err := inst.layers(tr, layers); err != nil {
			return fail(err)
		}
		// Wall-clock figures of the untraced half, without bounds.
		layers["bench.wall_ns_per_cycle"] = r.Ops["wall_ns_per_cycle"].Median
		layers["bench.op_ms_p50"] = r.Ops["op_ms"].Median
		layers["bench.op_ms_p95"] = percentile(opMs, 0.95)
		layers["bench.ref_step_ns"] = r.Ops["ref_step_ns"].Median
		if t := summarize(cost[true]); t.N > 0 && host.N > 0 {
			layers["bench.trace_overhead_frac"] = t.Median/host.Median - 1
			r.Ops["traced_host_cost_per_cycle"] = t
		}
		for _, d := range perLayer {
			r.Metrics[d.Name] = metric{layers[d.Name], d.Unit}
			delete(layers, d.Name)
		}
		for name := range layers {
			return fail(fmt.Errorf("per-layer metric %q is not declared in metrics.go", name))
		}
		if spansOut != nil {
			spansOut.merge(tr)
		}
	}
	if w.name == "net-uniform" {
		r.Notes = append(r.Notes, analyticNote())
	}
	return r
}

func (r run) contract() contractLine {
	return contractLine{r.Correct, max(r.Attempted, 1), r.Failed, r.Metrics}
}

// text renders the run for a reader.
func (r run) text() string {
	var b strings.Builder
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "== %s (%s, seed %d, %.0f s): %d ops, %d failed, correct=%v\n", r.Workload, mode, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&b, "  %-34s %14.6g %s", n, m.Value, m.Unit)
		if s, ok := r.Ops[n]; ok {
			fmt.Fprintf(&b, "   (min %.6g  q1 %.6g  q3 %.6g  n %d)", s.Min, s.Q1, s.Q3, s.N)
		}
		b.WriteByte('\n')
	}
	if s, ok := r.Ops["op_ms"]; ok && s.N > 0 {
		fmt.Fprintf(&b, "  op_ms: median %.4g  min %.4g  q1 %.4g  q3 %.4g  n %d\n", s.Median, s.Min, s.Q1, s.Q3, s.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  ERROR: %s\n", e)
	}
	return b.String()
}

// env records where a run was measured.
type env struct {
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Revision     string `json:"git_revision"`
	LoadavgStart string `json:"loadavg_start"`
	LoadavgEnd   string `json:"loadavg_end"`
}

func readEnv() env {
	return env{
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Revision:     gitRevision(),
		LoadavgStart: loadavg(),
	}
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision reads the checked-out commit from .git without running
// git; a checkout that is not a repository reports "unknown".
func gitRevision() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
