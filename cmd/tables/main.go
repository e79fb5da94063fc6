// Command tables regenerates the paper's tables on the simulated
// Ultracomputer:
//
//	tables -table 1    network traffic and performance of four programs
//	tables -table 2    TRED2 efficiencies (measured + projected)
//	tables -table 3    projected efficiencies with waiting recovered
//	tables -table 0    all of them
//
// Each reproduced value is printed beside the paper's.
//
// With -from host:port it instead renders a one-shot text dashboard
// from a running live telemetry server (ultrasim/netperf -serve), or
// from one ultraserve session's telemetry with
// -from host:port/sessions/<id>.
//
// With -spans file.jsonl it renders a request-trace span dump as ASCII
// waterfalls: each traced request's per-hop timeline on a shared time
// axis, combine points marked, absorbed children indented beneath the
// request that carried their operation to memory.
//
// With -prof file.jsonl it renders a guest profile's JSONL export: the
// state breakdown, function rollup, annotated source, contention
// heatmap, lock waits and critical paths. The profile's gzipped pprof
// export is read with stock go tool pprof (-top, -tags), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "which table to regenerate (1, 2, 3; 0 = all)")
	quick := flag.Bool("quick", false, "smaller problem sizes for a fast run")
	jsonOut := flag.Bool("json", false, "emit Table 1 as JSON machine reports instead of the formatted table")
	from := flag.String("from", "", "render a one-shot dashboard from a running telemetry server (host:port or URL; an ultraserve session via host:port/sessions/<id>) instead of regenerating tables")
	spansIn := flag.String("spans", "", "render a request-trace span dump (ultrasim/netperf -spans or a flight-<cycle>.jsonl) as ASCII waterfalls instead of regenerating tables")
	spanLimit := flag.Int("span-limit", 5, "how many trees -spans renders, slowest first (0 = all)")
	profIn := flag.String("prof", "", "render a guest profile's JSONL export (ultrasim -prof-out p.jsonl) instead of regenerating tables; read the .pb.gz export with go tool pprof")
	flag.Parse()

	if *profIn != "" {
		if err := runProf(os.Stdout, *profIn); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}

	if *spansIn != "" {
		if err := runSpans(os.Stdout, *spansIn, *spanLimit); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}

	if *from != "" {
		if err := runDashboard(*from); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}

	if *table == 0 || *table == 1 {
		runTable1(*quick, *jsonOut)
	}
	if *table == 0 || *table == 2 || *table == 3 {
		runTables23(*quick, *table)
	}
}

func runTable1(quick, jsonOut bool) {
	sizes := experiments.DefaultTable1Sizes
	if quick {
		sizes = experiments.QuickTable1Sizes
	}
	if !jsonOut {
		fmt.Println("Table 1. Network Traffic and Performance")
		fmt.Println("(time unit: PE instruction time; paper values in the row below each program)")
		fmt.Println()
	}
	rows := experiments.Table1(sizes, 0)
	if jsonOut {
		// Each report serializes through machine.Report.JSON, the same
		// path the metrics exporter uses.
		type namedReport struct {
			Name   string          `json:"name"`
			Report json.RawMessage `json:"report"`
		}
		out := make([]namedReport, 0, len(rows))
		for _, row := range rows {
			b, err := row.Report.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(1)
			}
			out = append(out, namedReport{Name: row.Name, Report: b})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(experiments.FormatTable1(rows))
	fmt.Println()
}

func runTables23(quick bool, which int) {
	grid := experiments.DefaultTredGrid
	if quick {
		grid = experiments.TredGrid{Ps: []int{1, 4, 8}, Ns: []int{8, 16}}
	}
	fmt.Printf("Fitting T(P,N) = a·N + d·N³/P + W(P,N) from %d×%d simulated runs...\n",
		len(grid.Ps), len(grid.Ns))
	samples := experiments.MeasureTred2(grid)
	model, t2, t3 := experiments.Tables23(samples)
	fmt.Printf("fitted: a=%.2f d=%.3f  W ≈ %.2f·N + %.2f·√P   (a/d = %.1f)\n\n",
		model.A, model.D, model.W1, model.W2, model.A/model.D)
	if which == 0 || which == 2 {
		fmt.Print(experiments.FormatEfficiencyGrid(
			"Table 2. Measured and Projected Efficiencies", t2, analytic.PaperTable2))
		fmt.Println()
	}
	if which == 0 || which == 3 {
		fmt.Print(experiments.FormatEfficiencyGrid(
			"Table 3. Projected Efficiencies (waiting time recovered)", t3, analytic.PaperTable3))
		fmt.Println()
	}
}
