// Command bench is the repository's one benchmark: six named workloads
// over the simulator and the service, end-to-end metrics with fixed
// bounds (BENCHMARK.json), and a traced run that attributes host time
// to layers. See README.md beside this file.
//
//	go run ./bench -workload net-uniform -seed 17 -seconds 18 -trace 0
//	go run ./bench -workload all -json > NEW.jsonl
//	go run ./bench -compare OLD.jsonl NEW.jsonl
//	go run ./bench -repeat 2
//	go run ./bench -list
//
// It drives the product only through public functions, claims no gain,
// and must be run from the module root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", goldenSeed, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 15, "how long each workload runs timed ops")
		traceOn = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		asJSON  = flag.Bool("json", false, "print each run's full record as one JSON line instead of text")
		spans   = flag.String("spans", "", "with -trace 1: write the retained spans to this file as JSON lines when the run ends")
		list    = flag.Bool("list", false, "list workloads and metrics, and what was left out and why")
		compare = flag.Bool("compare", false, "compare two files of -json records: -compare OLD NEW")
		repeat  = flag.Int("repeat", 0, "run N full untraced sets back to back and check that they agree within the bounds")
		updateG = flag.Bool("update-golden", false, "regenerate bench/golden.json from this run (seed 17)")
	)
	flag.Parse()

	switch {
	case *list:
		return listAll()
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare OLD NEW")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *repeat > 0 {
		return repeatSets(selected, *seed, *seconds, *repeat)
	}
	g, err := loadGolden(*updateG)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	var spansOut *spanRec
	if *spans != "" {
		spansOut = newSpanRec()
	}
	emit := func(r run) {
		if *asJSON {
			printJSON(r)
		} else {
			fmt.Print(r.text())
		}
	}
	total := contractLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		r := runWorkload(w, runOpts{*seed, *seconds, *traceOn == 1, defaultSetupReps}, g, spansOut)
		emit(r)
		c := r.contract()
		if len(selected) == 1 {
			total = c
			break
		}
		total.Correct = total.Correct && c.Correct
		total.Attempted += c.Attempted
		total.Failed += c.Failed
		for n, m := range c.Metrics {
			total.Metrics[w.name+"/"+n] = m
		}
	}
	if !*asJSON {
		fmt.Println("the model is unvalidated against hardware: the repository holds no measurement of a real Ultracomputer, so no error figure is given")
	}
	if *updateG {
		if err := g.write(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if spansOut != nil {
		if err := writeSpans(*spans, spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	printJSON(total)
	if !total.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the records hold only numbers and strings
	}
	fmt.Println(string(b))
}

func writeSpans(path string, r *spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func listAll() int {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-16s %s\n  %-16s bypasses: %s\n", w.name, w.why, "", w.bypass)
	}
	fmt.Println("left out:")
	for _, s := range leftOut {
		fmt.Println("  " + s)
	}
	if f, err := readBenchmarkFile(benchmarkPath); err == nil {
		fmt.Println("end-to-end metrics (-trace 0):")
		for _, d := range f.EndToEnd {
			fmt.Printf("  %-34s %-10s %s is better, bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-34s %-10s %s is better\n", d.Name, d.Unit, d.Better)
	}
	return 0
}
