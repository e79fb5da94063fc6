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
//
// Any observation flag (-trace, -metrics, -serve, -reqtrace, -spans,
// -flight-dir: the set shared with ultrasim, see internal/obs/live)
// runs one instrumented simulation of -simports ports instead, shaped
// by -rate, -hot, -combining and -measure.
package main

import (
	"flag"
	"fmt"
	"os"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/engine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
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
	var obsFlags live.Flags
	obsFlags.Register(flag.CommandLine)
	sampleEvery := flag.Int64("sample-every", 64, "network cycles between metrics samples")
	hot := flag.Float64("hot", 0, "fraction of the instrumented run's traffic aimed at a single hot word (§3.1.2 hot spot)")
	rate := flag.Float64("rate", 0.25, "traffic intensity of the instrumented run (requests per PE per cycle)")
	combining := flag.Bool("combining", true, "combine requests in the instrumented run (disable to expose raw tree saturation)")
	measure := flag.Int64("measure", 8000, "measured cycles of the instrumented run (after a 1000-cycle warmup)")
	engineFlag := flag.String("engine", "serial", "execution engine for the instrumented run: serial or parallel (byte-identical outputs either way)")
	workers := flag.Int("workers", 0, "parallel engine worker count (0 = GOMAXPROCS)")
	flag.Parse()

	eng, err := engine.New(*engineFlag, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netperf:", err)
		os.Exit(2)
	}
	defer eng.Close()

	if obsFlags.Any() {
		kit := obsFlags.New(obs.DefaultRecorderCapacity, *sampleEvery, nil, nil)
		w := trace.Workload{Rate: *rate, Hash: true, HotFraction: *hot, HotWord: 0, Seed: 17}
		if err := observe(kit, w, *simPorts, *combining, *measure, eng); err != nil {
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

// observe drives one simulated run under synthetic traffic with the
// kit's consumers attached, then writes the requested files. With -hot,
// tree saturation toward the hot module shows up in the per-stage
// occupancy series; with -serve the same run is watchable live over
// HTTP, including the analytic model-conformance drift that hot spots
// trip.
func observe(kit *live.Kit, w trace.Workload, ports int, combining bool, measure int64, eng engine.Engine) error {
	const k = 2
	stages := 0
	for n := 1; n < ports; n *= k {
		stages++
	}
	cfg := network.Config{K: k, Stages: stages, Combining: combining}
	if err := cfg.Validate(); err != nil {
		return err
	}
	w.Observers = kit.Observers
	if err := kit.Start(os.Stdout, cfg, 0, nil); err != nil {
		return err
	}
	r := trace.RunEngine(cfg, w, 1000, measure, eng)
	fmt.Printf("instrumented run: %d ports, %d stages, rate=%.3f hot=%.2f\n  %s\n",
		cfg.Ports(), stages, w.Rate, w.HotFraction, r)
	if err := kit.Finish(os.Stdout); err != nil {
		return err
	}
	if kit.Sampler != nil {
		fmt.Print(kit.Sampler.Summary())
	}
	kit.Hold(os.Stdout)
	return nil
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
