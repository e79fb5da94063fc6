// Command netperf regenerates Figure 7 of the paper: average network
// transit time as a function of traffic intensity for the candidate
// switch configurations, from the §4.1 queueing model, optionally
// cross-checked against the cycle-accurate simulator.
//
// Usage:
//
//	netperf [-n 4096] [-points 14] [-maxp 0.35] [-sim] [-simports 64]
//
// With -sim, each analytic curve is accompanied by simulated transit
// times measured on a (necessarily smaller) instance of the same
// configuration driven with uniform random fetch-and-add traffic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/engine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/sim"
	"ultracomputer/internal/trace"
)

func main() {
	n := flag.Int("n", 4096, "machine size (PE and MM count) for the analytic model")
	points := flag.Int("points", 14, "sweep points per curve")
	maxP := flag.Float64("maxp", 0.35, "maximum traffic intensity (messages per PE per cycle)")
	simulate := flag.Bool("sim", false, "cross-check with the cycle simulator")
	simPorts := flag.Int("simports", 64, "simulated machine size (power of the switch radix)")
	plot := flag.Bool("plot", false, "render the curves as an ASCII chart")
	csvOut := flag.String("csv", "", "write the curves as CSV to this file (- for stdout)")
	traceOut := flag.String("trace", "", "run one instrumented simulation and write a Chrome trace_event JSON to this file")
	metricsOut := flag.String("metrics", "", "run one instrumented simulation and write sampled per-stage metrics as JSONL to this file")
	sampleEvery := flag.Int64("sample-every", 64, "network cycles between metrics samples")
	hot := flag.Float64("hot", 0, "fraction of the instrumented run's traffic aimed at a single hot word (§3.1.2 hot spot)")
	rate := flag.Float64("rate", 0.25, "traffic intensity of the instrumented run (requests per PE per cycle)")
	combining := flag.Bool("combining", true, "combine requests in the instrumented run (disable to expose raw tree saturation)")
	measure := flag.Int64("measure", 8000, "measured cycles of the instrumented run (after a 1000-cycle warmup)")
	serveAddr := flag.String("serve", "", "run the instrumented simulation with live telemetry on this address (/metrics, /snapshot.json, /events, /trace/flight)")
	confThreshold := flag.Float64("conformance-threshold", 0, "measured/predicted round-trip drift ratio that raises the model-conformance alert (0 = default)")
	reqRate := flag.Float64("reqtrace", 0, "fraction of the instrumented run's requests to trace causally (0 = off, 1 = all)")
	spansOut := flag.String("spans", "", "write the instrumented run's request-trace spans as JSONL to this file (implies -reqtrace 1 when the rate is unset)")
	flightDir := flag.String("flight-dir", "", "directory for alert-triggered flight-recorder dumps, flight-<cycle>.jsonl (implies -reqtrace 1 when the rate is unset)")
	engineFlag := flag.String("engine", "serial", "execution engine for the instrumented run: serial or parallel (byte-identical outputs either way)")
	workers := flag.Int("workers", 0, "parallel engine worker count (0 = GOMAXPROCS)")
	flag.Parse()

	eng, err := engine.New(*engineFlag, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netperf:", err)
		os.Exit(2)
	}
	defer eng.Close()

	if *traceOut != "" || *metricsOut != "" || *serveAddr != "" || *reqRate > 0 || *spansOut != "" || *flightDir != "" {
		opts := observeOpts{
			tracePath: *traceOut, metricsPath: *metricsOut, serveAddr: *serveAddr,
			every: *sampleEvery, ports: *simPorts, rate: *rate, hot: *hot,
			combining: *combining, measure: *measure, threshold: *confThreshold,
			reqRate: *reqRate, spansPath: *spansOut, flightDir: *flightDir,
			eng: eng,
		}
		if err := observe(opts); err != nil {
			fmt.Fprintln(os.Stderr, "netperf:", err)
			os.Exit(1)
		}
		return
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, *n, *maxP, *points); err != nil {
			fmt.Fprintln(os.Stderr, "netperf:", err)
			os.Exit(1)
		}
		if *csvOut != "-" {
			fmt.Printf("wrote %s\n", *csvOut)
		}
		return
	}

	fmt.Printf("Figure 7 — transit times (network cycles) for an n=%d machine, B = k/m = 1\n\n", *n)
	if *plot {
		var series []sim.Series
		for _, cfg := range analytic.Figure7Configs(*n) {
			series = append(series, analytic.Figure7Series(cfg, *maxP, 60))
		}
		fmt.Println(analytic.AsciiPlot("Transit time T vs traffic intensity p", series, 64, 20, 40))
	}
	for _, cfg := range analytic.Figure7Configs(*n) {
		fmt.Printf("%-14s  cost=%.3f  capacity=%.3f  bandwidth=%.2f\n",
			cfg.String(), cfg.Cost(), cfg.Capacity(), cfg.Bandwidth())
		series := analytic.Figure7Series(cfg, *maxP, *points)
		for _, pt := range series.Points {
			fmt.Printf("  p=%.3f  T=%7.2f\n", pt.X, pt.Y)
		}
		if *simulate {
			simCheck(cfg, *simPorts, *maxP)
		}
		fmt.Println()
	}
}

// observeOpts configures one instrumented simulation run.
type observeOpts struct {
	tracePath, metricsPath, serveAddr string
	every                             int64
	ports                             int
	rate, hot                         float64
	combining                         bool
	measure                           int64
	threshold                         float64
	reqRate                           float64
	spansPath, flightDir              string
	eng                               engine.Engine
}

// observe drives one simulated run under synthetic traffic with the
// event probe and metrics sampler attached, then writes the requested
// trace and metrics files. With -hot, tree saturation toward the hot
// module shows up in the per-stage occupancy series; with -serve the
// same run is watchable live over HTTP, including the analytic
// model-conformance drift that hot spots trip.
func observe(o observeOpts) error {
	const k = 2
	stages := 0
	for n := 1; n < o.ports; n *= k {
		stages++
	}
	cfg := network.Config{K: k, Stages: stages, Combining: o.combining}
	if err := cfg.Validate(); err != nil {
		return err
	}
	w := trace.Workload{Rate: o.rate, Hash: true, HotFraction: o.hot, HotWord: 0, Seed: 17}
	var rec *obs.Recorder
	if o.tracePath != "" || o.serveAddr != "" {
		rec = obs.NewRecorder(obs.DefaultRecorderCapacity)
		w.Probe = rec
	}
	var sampler *obs.Sampler
	if o.metricsPath != "" || o.serveAddr != "" || o.flightDir != "" {
		sampler = obs.NewSampler(o.every)
		w.Sampler = sampler
	}
	var tracer *reqtrace.Tracer
	if o.reqRate > 0 || o.spansPath != "" || o.flightDir != "" {
		r := o.reqRate
		if r == 0 {
			r = 1
		}
		tracer = reqtrace.New(reqtrace.Config{Rate: r})
		w.Tracer = tracer
	}
	var feed *live.Feed
	var srv *live.Server
	if o.serveAddr != "" || o.flightDir != "" {
		if o.serveAddr != "" {
			srv = live.NewServer()
			if tracer != nil {
				srv.SetFlight(tracer)
			}
		}
		feed = &live.Feed{
			Server:    srv,
			Monitor:   live.NewMonitor(live.ModelFor(cfg, 0, o.threshold)),
			Recorder:  rec,
			Tracer:    tracer,
			FlightDir: o.flightDir,
		}
		feed.Attach(sampler)
		if srv != nil {
			hs, bound, err := srv.Start(o.serveAddr)
			if err != nil {
				return err
			}
			defer hs.Close()
			fmt.Printf("telemetry: http://%s/metrics\n", bound)
		}
	}
	r := trace.RunEngine(cfg, w, 1000, o.measure, o.eng)
	fmt.Printf("instrumented run: %d ports, %d stages, rate=%.3f hot=%.2f\n  %s\n",
		cfg.Ports(), stages, o.rate, o.hot, r)
	if feed != nil {
		feed.Finish()
		if st := feed.Last(); st != nil && st.Conformance != nil {
			c := st.Conformance
			fmt.Printf("model conformance: %s\n", c)
			if c.Alerts > 0 {
				fmt.Printf("  %d alerting windows (drift > %.2f or saturation)\n", c.Alerts, c.Threshold)
			}
		}
	}
	if o.tracePath != "" {
		if err := writeFile(o.tracePath, func(f io.Writer) error {
			return obs.WriteChromeTrace(f, rec.Events())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", o.tracePath, rec.Len())
	}
	if o.metricsPath != "" {
		if err := writeFile(o.metricsPath, sampler.WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d samples)\n%s", o.metricsPath, len(sampler.Snapshots()), sampler.Summary())
	}
	if tracer != nil {
		fmt.Printf("request tracing: %d spans completed, %d combine links, mean latency %.1f cycles\n",
			tracer.Completed(), tracer.CombineLinks(), tracer.MeanLatency())
		if o.spansPath != "" {
			if err := writeFile(o.spansPath, tracer.WriteSpansJSONL); err != nil {
				return err
			}
			fmt.Printf("wrote %s (inspect with: tables -spans %s)\n", o.spansPath, o.spansPath)
		}
		if feed != nil {
			for _, p := range feed.FlightDumps() {
				fmt.Printf("flight recorder dumped %s\n", p)
			}
		}
	}
	if o.serveAddr != "" {
		fmt.Println("run finished; serving the final snapshot until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV emits one row per (config, p) point: config, p, T.
func writeCSV(path string, n int, maxP float64, points int) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w, "config,k,m,d,p,transit_cycles")
	for _, cfg := range analytic.Figure7Configs(n) {
		for _, pt := range analytic.Figure7Series(cfg, maxP, points).Points {
			fmt.Fprintf(w, "%q,%d,%d,%d,%.4f,%.4f\n",
				cfg.String(), cfg.K, cfg.M, cfg.D, pt.X, pt.Y)
		}
	}
	return nil
}

// simCheck runs the simulator at a few loads for a scaled-down instance
// of cfg and prints measured one-way transit beside the analytic value
// for the same (smaller) machine.
func simCheck(cfg analytic.NetConfig, ports int, maxP float64) {
	stages := 0
	for n := 1; n < ports; n *= cfg.K {
		stages++
	}
	small := analytic.NetConfig{N: ports, K: cfg.K, M: 3, D: cfg.D}
	netCfg := network.Config{K: cfg.K, Stages: stages, Copies: cfg.D, Combining: true}
	if err := netCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "  sim skipped: %v\n", err)
		return
	}
	fmt.Printf("  simulated (%d ports, %d stages; all 3-packet messages, so m=3 analytically):\n",
		netCfg.Ports(), stages)
	for _, frac := range []float64{0.1, 0.3, 0.6} {
		p := frac * maxP
		if p >= 0.9*small.Capacity() {
			continue
		}
		r := trace.Run(netCfg, trace.Workload{Rate: p, Hash: true, Seed: 17}, 2000, 8000)
		fmt.Printf("    p=%.3f  simulated T=%6.2f   analytic T=%6.2f\n",
			p, r.OneWay.Value(), analytic.TransitTime(small, p))
	}
}
