// Hotspot demonstrates the Ultracomputer's central hardware claim
// (§3.1.2–3.1.3): when every PE hammers one shared cell with
// fetch-and-add, the combining switches satisfy any number of concurrent
// references in the time of one memory access — so interprocessor
// coordination is never serialized. The same experiment with combining
// disabled shows the serial bottleneck the design eliminates.
//
//	go run ./examples/hotspot
//	go run ./examples/hotspot -trace hotspot.json -metrics hotspot.jsonl
//
// The observation flags are the set shared with ultrasim and netperf
// (internal/obs/live) and observe the combining run: with -trace it is
// recorded and exported as a Chrome trace_event file (open in
// https://ui.perfetto.dev) where each memory-module service span's
// "serves" argument lists every origin request it answered, the
// combining tree made visible. Request tracing (-reqtrace, -spans)
// covers BOTH runs: -spans <file> holds the combining run's spans,
// <file>.plain those of the uncombined control.
package main

import (
	"flag"
	"fmt"
	"os"

	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/pe"
)

func main() {
	var obsFlags live.Flags
	obsFlags.Register(flag.CommandLine)
	sampleEvery := flag.Int64("sample-every", 16, "network cycles between metrics samples")
	flag.Parse()

	const rounds = 32
	fmt.Println("64 PEs performing fetch-and-adds on ONE shared cell")
	fmt.Printf("%-14s %12s %14s %12s %12s\n",
		"switches", "PE cycles", "CM access", "combines", "MM ops")
	served := obsFlags.New(obs.DefaultRecorderCapacity, *sampleEvery, nil, nil)
	run(true, rounds, served)
	// The uncombined control keeps only the request tracing.
	plain := live.Flags{ReqRate: obsFlags.ReqRate}
	if obsFlags.Spans != "" {
		plain.Spans = obsFlags.Spans + ".plain"
	}
	run(false, rounds, plain.New(obs.DefaultRecorderCapacity, *sampleEvery, nil, nil))
	fmt.Println("\ncombining turns a serial hot spot into logarithmic fan-in:")
	fmt.Println("memory serves far fewer operations and latency stays flat.")
	if served.Tracer != nil {
		fmt.Println("the span genealogy shows the same story per request: combining runs")
		fmt.Println("link spans into trees at the switches, uncombined runs never do.")
	}
	served.Hold(os.Stdout)
}

// run executes the experiment once under kit's observation.
func run(combining bool, rounds int, kit *live.Kit) {
	cfg := machine.Config{
		Net:     network.Config{K: 2, Stages: 6, Combining: combining},
		Hashing: true,
	}
	m := machine.SPMD(cfg, 64, func(ctx *pe.Ctx) {
		for i := 0; i < rounds; i++ {
			ctx.FetchAdd(7, 1)
		}
	})
	m.Observe(kit.Observers)
	check(kit.Start(os.Stdout, cfg.Net, cfg.MMLatency, nil))
	cycles := m.MustRun(100_000_000)
	if got := m.ReadShared(7); got != 64*int64(rounds) {
		panic(fmt.Sprintf("counter = %d, want %d", got, 64*rounds))
	}
	r := m.Report()
	name := "combining"
	if !combining {
		name = "plain queued"
	}
	fmt.Printf("%-14s %12d %11.1f ins %12d %12d\n",
		name, cycles, r.AvgCMAccess, r.Combines, r.MMOpsServed)
	check(kit.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
