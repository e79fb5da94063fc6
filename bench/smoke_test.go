package main

import (
	"encoding/json"
	"reflect"
	"regexp"
	"testing"
	"unicode/utf8"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// endToEndNames are the metrics an untraced run reports.
var endToEndNames = []string{
	"host_cost_per_cycle", "allocs_per_kcycle", "bytes_per_kcycle", "heap_live_mb", "setup_s",
}

// BENCHMARK.json must declare exactly what the program reports, within
// the limits the driver's contract sets.
func TestBenchmarkJSON(t *testing.T) {
	f, err := readBenchmarkFile("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
	// The driver makes 4 + 22 per workload runs inside 3420 s; leave
	// 6 s a run for set-up and start, and 120 s for the two builds.
	if runs := 4 + 22*len(f.Workloads); runs*(f.RunSeconds+6)+120 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's 3420 s", runs, f.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d registered", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		use("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if n := utf8.RuneCountInString(w.Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, n)
		}
	}

	var e2e []string
	setup := false
	for _, d := range f.EndToEnd {
		use("metric", d.Name)
		e2e = append(e2e, d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end = %v, the program reports %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %v\n go   %v", f.PerLayer, perLayer)
	}
	for _, d := range f.PerLayer {
		use("metric", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
}

// Every workload runs a handful of ops untraced and traced, every op
// passes its checks, and the last line carries exactly the declared
// metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	g, err := loadGolden(false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readBenchmarkFile("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, d := range append(f.EndToEnd, f.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := runWorkload(w, runOpts{seed: 5, seconds: 0.05, traced: traced, setupReps: 1}, g, nil)
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v", w.name, traced, r.Correct, r.Attempted, r.Failed, r.Errors)
				continue
			}
			b, err := json.Marshal(r.contract())
			if err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(b, &line); err != nil || len(line) != 4 {
				t.Errorf("%s: contract line %s", w.name, b)
			}
			want := endToEndNames
			if traced {
				want = nil
				for _, d := range perLayer {
					want = append(want, d.Name)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(want))
			}
			for _, n := range want {
				m, ok := r.Metrics[n]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, n)
				} else if m.Unit != units[n] {
					t.Errorf("%s: metric %s reported in %q, declared in %q", w.name, n, m.Unit, units[n])
				} else if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, n, m.Value)
				}
			}
		}
	}
}
