// Command ultrasim runs an assembly program on the simulated
// Ultracomputer, one copy per PE (SPMD; use rdpe to diverge), and prints
// the machine report and requested memory/register dumps.
//
// Usage:
//
//	ultrasim -pes 8 -k 2 -stages 4 prog.s
//	ultrasim -pes 4 -dump 0:16 -reg 1,2,3 prog.s
//	ultrasim -pes 64 -stages 6 -serve :8080 prog.s   # live telemetry
//
// The instruction set is documented in internal/isa; see examples/ for
// sample programs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/lint/guest/mc"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/serve"
)

func main() {
	// The machine flags are the config object's fields; -config supplies
	// their defaults. Without it they start from the built-in base.
	cfg := serve.Config{K: 2, Stages: 4, PEs: 4}.WithDefaults()
	cfg.RegisterFlags(flag.CommandLine)
	var obsFlags live.Flags
	obsFlags.Register(flag.CommandLine)
	verifyFlag := flag.Bool("verify", false, "model-check the program exhaustively at 2 PEs (`;mc:` properties, deadlock, lost updates) before the run; a violation prints its schedule and aborts")
	dump := flag.String("dump", "", "shared memory range to print, lo:hi")
	regs := flag.String("reg", "", "comma-separated integer registers to print per PE")
	topo := flag.Bool("topo", false, "print the network wiring (the paper's Figure 2) and exit")
	disasm := flag.Bool("disasm", false, "print the assembled program's disassembly and exit")
	profFlag := flag.Bool("prof", false, "profile the guest program: cycle-exact attribution of every PE cycle to its pc and state (execute / cache-hit / memory-wait / net-full-stall / spin)")
	profOut := flag.String("prof-out", "", "write the guest profile to this file: .pb.gz/.pprof selects gzipped pprof protobuf (go tool pprof), anything else JSONL (tables -prof); implies -prof")
	configPath := flag.String("config", "", "JSON machine config file (the same validated object ultraserve stores); explicitly set flags override its fields, and its program runs when no prog.s argument is given")
	flag.Parse()
	if *configPath != "" {
		// The first parse found -config; the second lays the flags the
		// command line actually gave back over the file's values.
		c, err := serve.LoadConfigFile(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg = c
		flag.Parse()
	}

	if *topo {
		if err := cfg.MachineConfig().Net.Validate(); err != nil {
			fatal(err)
		}
		fmt.Print(network.DescribeTopology(cfg.K, cfg.Stages))
		return
	}

	srcName := *configPath
	switch {
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cfg.Program, srcName = string(b), flag.Arg(0)
	case flag.NArg() != 0 || *configPath == "":
		fmt.Fprintln(os.Stderr, "usage: ultrasim [flags] prog.s  (or -config cfg.json with an embedded program)")
		os.Exit(2)
	}
	if *disasm {
		prog, err := isa.Assemble(cfg.Program)
		if err != nil {
			fatal(err)
		}
		fmt.Print(prog.Disassemble())
		return
	}

	// -verify preflight: an exhaustive 2-PE interleaving proof is cheap
	// next to a long simulation and catches the coordination bugs the
	// per-PE lint cannot (the bound stays at 2 — or lower via `;mc:
	// bound` — because the state space grows steeply with PEs; ultravet
	// -mc-pes raises it offline).
	if *verifyFlag {
		res, err := mc.CheckSource(cfg.Program, mc.Options{PEs: 2})
		if err != nil {
			fatal(err)
		}
		switch {
		case res.Suppressed:
			fmt.Fprintf(os.Stderr, "verify: %s: suppressed (%s)\n", srcName, res.SuppressReason)
		case res.Exhausted:
			fmt.Fprintf(os.Stderr, "verify: %s: state budget exhausted after %d states; nothing proven\n", srcName, res.States)
			os.Exit(1)
		case res.Violation != nil:
			v := res.Violation
			fmt.Fprintf(os.Stderr, "verify: %s: %s\n", srcName, v.Message)
			fmt.Fprintf(os.Stderr, "counterexample schedule (%d PEs):\n", res.PEs)
			for _, st := range v.Steps {
				fmt.Fprintf(os.Stderr, "  PE%d  line %-3d  %s\n", st.PE, st.Line, st.Asm)
			}
			os.Exit(1)
		default:
			fmt.Fprintf(os.Stderr, "verify: %s: clean (%d states at %d PEs, %s)\n",
				srcName, res.States, res.PEs, res.Elapsed.Round(time.Millisecond))
		}
	}

	m, isaCores, _, err := cfg.Build()
	if err != nil {
		var le *machine.LintError
		if errors.As(err, &le) {
			for _, f := range le.Findings {
				fmt.Fprintf(os.Stderr, "%s: %s\n", srcName, f)
			}
			os.Exit(1)
		}
		fatal(err)
	}
	cfg = cfg.WithDefaults()
	mcfg := cfg.MachineConfig()

	var profiler *prof.Profiler
	if *profFlag || *profOut != "" {
		profiler = prof.New(prof.Config{
			PEs:      cfg.PEs,
			Programs: []*isa.Program{isaCores[0].Program()},
			File:     filepath.Base(srcName),
			Source:   cfg.Program,
		})
	}
	kit := obsFlags.New(cfg.SampleEvery, nil, profiler)
	m.Observe(kit.Observers)
	if err := kit.Start(os.Stdout, mcfg.Net, mcfg.MMLatency, live.Windowed(m.Report)); err != nil {
		fatal(err)
	}

	cycles, done := m.Run(cfg.Limit)
	if !done {
		fmt.Fprintf(os.Stderr, "warning: cycle limit reached before all PEs halted\n")
	}
	fmt.Printf("ran %d PE cycles (%d network cycles)\n\n", cycles, m.Cycles())
	fmt.Print(m.Report().String())

	if err := kit.Finish(os.Stdout); err != nil {
		fatal(err)
	}
	if profiler != nil {
		// Fold the tracer's combining genealogy into the profile: the
		// longest dependent chains through each combining tree are the
		// run's top slow paths.
		if tracer := kit.Tracer; tracer != nil {
			spans := append(tracer.Spans(), tracer.SlowSpans()...)
			profiler.AddCriticalPaths(prof.CriticalPaths(spans, 10))
		}
		printProfSummary(profiler)
		if *profOut != "" {
			emit, how := profiler.WriteJSONL, "tables -prof "+*profOut
			if strings.HasSuffix(*profOut, ".pb.gz") || strings.HasSuffix(*profOut, ".pprof") {
				emit, how = profiler.WritePprof, "go tool pprof -top "+*profOut
			}
			if err := live.WriteFile(*profOut, emit); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (inspect with: %s)\n", *profOut, how)
		}
	}

	if *dump != "" {
		lo, hi, err := parseRange(*dump)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nshared memory [%d, %d):\n", lo, hi)
		for a := lo; a < hi; a++ {
			fmt.Printf("  M[%d] = %d\n", a, m.ReadShared(a))
		}
	}
	if *regs != "" {
		fmt.Println()
		for _, s := range strings.Split(*regs, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || r < 0 || r >= isa.NumRegs {
				fatal(fmt.Errorf("bad register %q", s))
			}
			for i, c := range isaCores {
				fmt.Printf("  pe%d r%d = %d\n", i, r, c.Reg(r))
			}
		}
	}

	kit.Hold(os.Stdout)
}

// printProfSummary prints the profile's headline numbers: where the
// guest's cycles went by state, the hottest functions, and the most
// contended shared words.
func printProfSummary(p *prof.Profiler) {
	m := p.Merged()
	if m.TotalCycles == 0 {
		return
	}
	var states [obs.NumProfStates]int64
	for _, r := range m.PEs {
		for s, v := range r.States {
			states[s] += v
		}
	}
	fmt.Printf("\nguest profile: %d cycles across %d PEs\n", m.TotalCycles, len(m.PEs))
	for s, v := range states {
		if v > 0 {
			fmt.Printf("  %-15s %12d  %5.1f%%\n", obs.ProfState(s), v,
				100*float64(v)/float64(m.TotalCycles))
		}
	}
	fmt.Println("hottest functions (flat cycles):")
	shown := 0
	for _, f := range m.Funcs {
		if f.Name == "<halted>" {
			continue
		}
		fmt.Printf("  %-28s flat %10d  cum %10d\n", f.Name, f.Flat, f.Cum)
		if shown++; shown == 5 {
			break
		}
	}
	rows := append([]prof.AddrRow(nil), m.Addrs...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Accesses > rows[j].Accesses })
	if len(rows) > 0 {
		fmt.Println("hottest shared words (accesses / combines / wait cycles):")
		for i, r := range rows {
			if i == 5 || r.Accesses == 0 {
				break
			}
			fmt.Printf("  MM %2d word %6d  %10d / %8d / %10d\n",
				r.MM, r.Word, r.Accesses, r.Combines, r.WaitCycles)
		}
	}
	for i, cp := range m.Paths {
		if i == 0 {
			fmt.Println("top slow paths (combining-tree critical chains):")
		}
		if i == 3 {
			break
		}
		fmt.Printf("  root %d  MM %d word %d  %d spans  depth %d  %d cycles\n",
			cp.Root, cp.MM, cp.Word, cp.TreeSpans, cp.Depth, cp.Latency)
	}
}

func parseRange(s string) (lo, hi int64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q, want lo:hi", s)
	}
	if lo, err = strconv.ParseInt(parts[0], 0, 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseInt(parts[1], 0, 64); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ultrasim:", err)
	os.Exit(1)
}
