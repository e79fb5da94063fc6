package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
)

// readRuns reads the untraced run records of a -json output: one JSON
// object a line, of which those with a "workload" key are records (the
// contract lines between them are skipped).
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := parseRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run record (write it with -json)", path)
	}
	return runs, nil
}

func parseRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Workload == "" || r.Trace {
			continue
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// side is one file's figures for one (workload, metric): the summary
// over its runs. A file with one run a workload has no spread, so its
// metrics can only come out same, better or worse; append the -json
// output of several runs to one file to let unresolved show.
type side struct {
	summary
	lo, hi float64 // range of the runs, for the overlap test
	failed int
}

func sideOf(runs []run, workload, name string) (side, bool) {
	var vals []float64
	var s side
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		vals = append(vals, m.Value)
		s.failed += r.Failed
	}
	if len(vals) == 0 {
		return s, false
	}
	s.summary = summarize(vals)
	sort.Float64s(vals)
	s.lo, s.hi = vals[0], vals[len(vals)-1]
	return s, true
}

// verdict compares two sides of a metric. worse and better mean the
// median moved by more than the bound; unresolved means the spread is
// wider than the bound and the runs overlap, so the figures cannot
// tell; same is the rest.
func verdict(d metricDef, old, new side) (string, float64) {
	delta := 0.0
	if old.Median != 0 {
		delta = (new.Median - old.Median) / math.Abs(old.Median)
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	overlap := new.lo <= old.hi && old.lo <= new.hi
	if math.Max(old.spread(), new.spread()) > d.Bound && overlap {
		return "unresolved", delta
	}
	switch {
	case worse > d.Bound:
		return "worse", delta
	case worse < -d.Bound:
		return "better", delta
	}
	return "same", delta
}

func compareFiles(oldPath, newPath string) int {
	f, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	olds, err := readRuns(oldPath)
	if err == nil {
		var news []run
		if news, err = readRuns(newPath); err == nil {
			return compareRuns(f, olds, news)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareRuns(f *benchmarkFile, olds, news []run) int {
	code := 0
	fmt.Printf("%-16s %-20s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "old q1", "old median", "old q3", "new q1", "new median", "new q3", "delta", "bound", "verdict")
	for _, w := range f.Workloads {
		var oldFailed, newFailed int
		for _, d := range f.EndToEnd {
			o, ok1 := sideOf(olds, w.Name, d.Name)
			n, ok2 := sideOf(news, w.Name, d.Name)
			if !ok1 || !ok2 {
				continue
			}
			oldFailed, newFailed = o.failed, n.failed
			v, delta := verdict(d, o, n)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-16s %-20s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %+7.1f%% %6.2f  %s\n",
				w.Name, d.Name, o.Q1, o.Median, o.Q3, n.Q1, n.Median, n.Q3, 100*delta, d.Bound, v)
		}
		if newFailed > oldFailed {
			fmt.Printf("%-16s failed ops rose from %d to %d\n", w.Name, oldFailed, newFailed)
			code = 1
		}
	}
	return code
}

// repeatSets runs n full untraced sets back to back and checks that,
// for every end-to-end metric of every workload, the sets agree within
// the metric's bound: the largest value is no more than bound above the
// smallest. It is the test that the benchmark can resolve its bounds.
// Every run is a fresh process of this program, as under the driver: in
// one process a later run inherits the heap and GC pace of the earlier
// ones, which moves heap_live_mb and setup_s by more than their bounds.
func repeatSets(selected []workload, seed uint64, seconds float64, n int) int {
	f, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var runs []run
	code := 0
	for set := 0; set < n; set++ {
		for _, w := range selected {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-json")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // a run that is not correct exits 1 and still prints its record
			rs, perr := parseRuns(bytes.NewReader(out))
			if perr != nil || len(rs) != 1 {
				fmt.Fprintf(os.Stderr, "bench: set %d: %s printed no run record (%v)\n", set+1, w.name, err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "set %d: %s", set+1, rs[0].text())
			if !rs[0].Correct {
				code = 1
			}
			runs = append(runs, rs[0])
		}
	}
	fmt.Printf("%-16s %-20s %8s %6s  %s\n", "workload", "metric", "spread", "bound", "values")
	for _, w := range selected {
		for _, d := range f.EndToEnd {
			var vals []float64
			for _, r := range runs {
				if m, ok := r.Metrics[d.Name]; ok && r.Workload == w.name {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := (hi - lo) / math.Abs(lo)
			mark := "ok"
			switch {
			case spread <= d.Bound:
			case d.Name == "setup_s":
				// Wall seconds of a 0.1-s set-up move with the host by
				// more than any bound allowed; the driver exempts this
				// metric's spread too and compares medians of ten runs.
				mark = "disagree (exempt)"
			default:
				mark = "DISAGREE"
				code = 1
			}
			fmt.Printf("%-16s %-20s %7.1f%% %6.2f  %.6g %s\n", w.name, d.Name, 100*spread, d.Bound, vals, mark)
		}
	}
	return code
}
